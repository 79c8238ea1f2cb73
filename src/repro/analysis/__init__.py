"""Protocol static analysis: structured diagnostics over rendezvous ASTs.

The paper's central claim is that its protocol class is *statically
checkable*: the section 2.4 syntactic restrictions, the section 3.3
request/reply fusability conditions and the section 2.5/3.2 buffer and
progress prerequisites are all decidable on the AST, before any state
space is explored.  This subsystem makes that a first-class tool:

* :mod:`~repro.analysis.diagnostics` — the :class:`Diagnostic` record
  (stable ``P….`` codes, severity, location, message, fix hint), the
  :class:`AnalysisReport` container and text/JSON renderers;
* :mod:`~repro.analysis.restrictions` — section 2.4 restriction checks
  (the old :mod:`repro.csp.validate` strings, now structured);
* :mod:`~repro.analysis.reachability` — unreachable states, dead guards;
* :mod:`~repro.analysis.overlap` — ambiguous home input guards;
* :mod:`~repro.analysis.fusability` — the per-pair section 3.3 report;
* :mod:`~repro.analysis.bufferdemand` — static home-buffer-demand bound;
* :mod:`~repro.analysis.transients` — transient-exit sanity on refined
  machines;
* :mod:`~repro.analysis.symbolic` — the two-node contexts the certificate's
  sweep is rooted at, and how its steps are named (section 4);
* :mod:`~repro.analysis.simulation` — the certificate checker: Equation 1
  against ``abs`` on every edge of that sweep, memoized in process
  (``P44xx``);
* :mod:`~repro.analysis.memokey` — the sound structural key of that memo
  (user callables seen through; unkeyable subjects are never stored);
* :mod:`~repro.analysis.flows` — message-flow derivation from the AST
  (the transaction shapes between stable home states);
* :mod:`~repro.analysis.environment` — the abstract system both any-N
  verdicts are checked on: concrete remotes plus a stateless Other,
  gated by flow lemmas that are invariants of the sweep they gate;
* :mod:`~repro.analysis.paramcheck` — flow-based parameterized
  deadlock-freedom verdicts for arbitrary node counts (``P45xx``);
* :mod:`~repro.analysis.coherencecheck` — parameterized single-writer /
  SWMR verdicts on the same abstraction (``P46xx``);
* :mod:`~repro.analysis.sarif` — SARIF 2.1.0 export of any report;
* :mod:`~repro.analysis.manager` — the pass manager
  (:func:`analyze_protocol` / :func:`analyze_refined`).

Run it from the command line with ``python -m repro lint <protocol>``;
the refinement engine runs the same suite and refuses protocols with
error-severity findings.  The full code catalogue, with paper citations,
lives in ``docs/ANALYSIS.md``.
"""

from .bufferdemand import home_buffer_bound, remote_demand
from .coherencecheck import CoherenceVerdict, check_coherence
from .diagnostics import (
    CODES,
    AnalysisReport,
    CodeInfo,
    Diagnostic,
    Severity,
    expand_codes,
    render_json,
    render_text,
)
from .environment import FlowLemma
from .flows import Flow, FlowGraph, derive_flows
from .manager import (
    AnalysisCache,
    AnalysisContext,
    analyze_protocol,
    analyze_refined,
)
from .overlap import patterns_may_overlap
from .paramcheck import ParamVerdict, check_parameterized
from .reachability import unreachable_states
from .simulation import CertificateReport, check_certificate

__all__ = [
    "CODES",
    "AnalysisCache",
    "AnalysisContext",
    "AnalysisReport",
    "CertificateReport",
    "CodeInfo",
    "CoherenceVerdict",
    "Diagnostic",
    "Flow",
    "FlowGraph",
    "FlowLemma",
    "ParamVerdict",
    "Severity",
    "analyze_protocol",
    "analyze_refined",
    "check_certificate",
    "check_coherence",
    "check_parameterized",
    "derive_flows",
    "expand_codes",
    "home_buffer_bound",
    "patterns_may_overlap",
    "remote_demand",
    "render_json",
    "render_text",
    "unreachable_states",
]
