"""Structured diagnostics for the protocol static-analysis subsystem.

Every finding the analysis passes produce is a :class:`Diagnostic`: a
stable code (``P2401``, ``P3302``, ...), a severity, a location
(``process.state`` or just ``process``), a human-readable message and an
optional fix hint.  Codes are registered once in :data:`CODES` together
with the paper section that motivates the check, so renderers, the CLI's
``--select`` filter and the documentation catalogue all share one source
of truth.

Severity semantics follow the refinement theorem:

* :data:`Severity.ERROR` — the protocol is outside the class the paper's
  soundness proof covers; :func:`repro.refine.engine.refine` refuses it.
* :data:`Severity.WARNING` — refinable, but almost certainly a spec bug
  (dead guard, unreachable state) or a performance hazard (undersized
  home buffer).
* :data:`Severity.INFO` — a report, not a complaint: which request/reply
  pairs fused and why the others did not, when nacks become impossible.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

__all__ = [
    "CODES",
    "AnalysisReport",
    "CodeInfo",
    "Diagnostic",
    "Severity",
    "expand_codes",
    "make",
    "render_json",
    "render_text",
]


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst finding."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    code: str
    title: str
    section: str  # paper section motivating the check, e.g. "2.4"
    default_severity: Severity


def _registry(*entries: CodeInfo) -> dict[str, CodeInfo]:
    table: dict[str, CodeInfo] = {}
    for entry in entries:
        if entry.code in table:
            raise ValueError(f"duplicate diagnostic code {entry.code!r}")
        table[entry.code] = entry
    return table


#: Every diagnostic code the analysis suite can emit.  ``P24xx`` are the
#: section 2.4 syntactic restrictions (errors: refinement is refused),
#: ``P25xx`` structural liveness/reachability findings, ``P32xx`` the
#: section 3.2/6 buffer-demand analysis, ``P33xx`` the section 3.3
#: request/reply fusability report, ``P34xx`` transient-state sanity on
#: refined machines, ``P44xx`` the simulation certificate, ``P45xx`` the
#: flow inventory and the parameterized (arbitrary-N) deadlock-freedom
#: analysis, ``P46xx`` parameterized coherence.
CODES: dict[str, CodeInfo] = _registry(
    # -- section 2.4 syntactic restrictions (refinement preconditions) ------
    CodeInfo("P2401", "terminal state", "2.4", Severity.ERROR),
    CodeInfo("P2402", "home output lacks a remote target", "2.4",
             Severity.ERROR),
    CodeInfo("P2403", "home input lacks a sender pattern", "2.4",
             Severity.ERROR),
    CodeInfo("P2404", "remote output names a peer", "2.4", Severity.ERROR),
    CodeInfo("P2405", "remote input names a peer", "2.4", Severity.ERROR),
    CodeInfo("P2406", "remote output non-determinism", "2.4", Severity.ERROR),
    CodeInfo("P2407", "remote active state mixes guards", "2.4",
             Severity.ERROR),
    CodeInfo("P2408", "home communication state carries taus", "2.4",
             Severity.ERROR),
    CodeInfo("P2409", "internal-state cycle", "2.4", Severity.ERROR),
    CodeInfo("P2410", "ambiguous input guards", "2.4", Severity.WARNING),
    CodeInfo("P2411", "duplicate tau label", "2.4", Severity.ERROR),
    # -- reachability / dead code (progress prerequisites) ------------------
    CodeInfo("P2501", "unreachable state", "2.5", Severity.WARNING),
    CodeInfo("P2502", "dead guard", "2.5", Severity.WARNING),
    # -- home buffer demand (sections 3.2 and 6) ----------------------------
    CodeInfo("P3201", "home buffer below static demand bound", "3.2",
             Severity.WARNING),
    CodeInfo("P3202", "home buffer covers worst-case demand", "6",
             Severity.INFO),
    CodeInfo("P3203", "unbounded fire-and-forget demand", "6",
             Severity.WARNING),
    # -- request/reply fusability report (section 3.3) ----------------------
    CodeInfo("P3301", "request/reply pair fusable", "3.3", Severity.INFO),
    CodeInfo("P3302", "request/reply candidate not fusable", "3.3",
             Severity.INFO),
    CodeInfo("P3303", "fusable pair skipped (chained fusion)", "3.3",
             Severity.INFO),
    # -- transient-state sanity on refined machines (Tables 1-2) ------------
    CodeInfo("P3402", "fire-and-forget message received by remote", "5",
             Severity.ERROR),
    CodeInfo("P3403", "transient-state inventory", "3", Severity.INFO),
    # -- simulation-certificate obligations (section 4, Equation 1) ---------
    CodeInfo("P4401", "non-commuting transition", "4", Severity.ERROR),
    CodeInfo("P4402", "abstraction undefined outside the fire-and-forget "
                      "carve-out", "4", Severity.ERROR),
    CodeInfo("P4403", "transient state with no abstract preimage", "4",
             Severity.ERROR),
    CodeInfo("P4404", "step-table target mismatch against the AST", "3",
             Severity.ERROR),
    CodeInfo("P4405", "certificate inventory", "4", Severity.INFO),
    CodeInfo("P4406", "certificate incomplete (budget exhausted)", "4",
             Severity.WARNING),
    # -- flow inventory and parameterized deadlock freedom ------------------
    CodeInfo("P4501", "incomplete flow cover", "flows", Severity.WARNING),
    CodeInfo("P4502", "stuck abstract state", "flows", Severity.WARNING),
    CodeInfo("P4503", "unbounded-buffer obligation", "flows", Severity.WARNING),
    CodeInfo("P4505", "parameterized deadlock freedom discharged", "flows",
             Severity.INFO),
    CodeInfo("P4506", "flow inventory", "flows", Severity.INFO),
    CodeInfo("P4507", "parameterized check inconclusive", "flows",
             Severity.WARNING),
    # -- parameterized coherence (environment abstraction) -------------------
    CodeInfo("P4601", "parameterized coherence discharged", "coherence",
             Severity.INFO),
    CodeInfo("P4602", "coherence refuted (two-concrete-node witness)",
             "coherence", Severity.WARNING),
    CodeInfo("P4603", "parameterized coherence inconclusive", "coherence",
             Severity.WARNING),
    CodeInfo("P4604", "noninterference lemma inventory", "coherence",
             Severity.INFO),
    CodeInfo("P4605", "environment abstraction unsound for this construct",
             "coherence", Severity.WARNING),
)


def expand_codes(tokens: Iterable[str]) -> frozenset[str]:
    """Expand exact codes and code-family prefixes to registered codes.

    Each token is either a code registered in :data:`CODES` (``"P3301"``)
    or a prefix matching at least one registered code (``"P33"``, ``"P4"``)
    — the CLI's ``--select P45`` / ``--ignore P33`` syntax.  Raises
    :class:`KeyError` for tokens matching nothing, so typos fail loudly.
    """
    expanded: set[str] = set()
    unknown: list[str] = []
    for token in tokens:
        if token in CODES:
            expanded.add(token)
            continue
        family = [code for code in CODES if code.startswith(token)]
        if token and family:
            expanded.update(family)
        else:
            unknown.append(token)
    if unknown:
        raise KeyError(
            "unknown diagnostic code(s) or prefix(es): "
            f"{', '.join(sorted(unknown))}")
    return frozenset(expanded)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass.

    ``location`` is ``"process.state"`` for state-level findings or just
    ``"process"`` / ``"protocol"`` for whole-machine findings; ``hint``
    (optional) suggests a fix.  ``legacy_text`` reproduces the exact
    pre-diagnostics message of :mod:`repro.csp.validate` so the back-compat
    wrappers stay byte-identical; it defaults to ``location: message``.
    """

    code: str
    severity: Severity
    location: str
    message: str
    hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")

    @property
    def info(self) -> CodeInfo:
        return CODES[self.code]

    @property
    def legacy_text(self) -> str:
        """The ``location: message`` form used by the string-based API."""
        return f"{self.location}: {self.message}"

    def render(self) -> str:
        hint = f"\n        hint: {self.hint}" if self.hint else ""
        return (f"{self.code} {self.severity.label:<7} {self.location}: "
                f"{self.message}{hint}")

    def as_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity.label,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
            "title": self.info.title,
            "section": self.info.section,
        }


def make(code: str, location: str, message: str,
         hint: Optional[str] = None,
         severity: Optional[Severity] = None) -> Diagnostic:
    """Build a diagnostic using the code's registered default severity."""
    if code not in CODES:
        raise ValueError(f"unregistered diagnostic code {code!r}")
    return Diagnostic(code=code,
                      severity=severity or CODES[code].default_severity,
                      location=location, message=message, hint=hint)


# ---------------------------------------------------------------------------
# reports and renderers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    """The result of running the pass suite over one protocol."""

    subject: str  # protocol (or refined-protocol) name
    diagnostics: tuple[Diagnostic, ...] = ()
    passes_run: tuple[str, ...] = field(default=())

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return self.at(Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return self.at(Severity.WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return self.at(Severity.INFO)

    def at(self, severity: Severity) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == severity)

    @property
    def max_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        """No error-severity findings (the refinement engine's gate)."""
        return not self.errors

    def codes(self) -> frozenset[str]:
        return frozenset(d.code for d in self.diagnostics)

    def select(self, codes: Iterable[str]) -> "AnalysisReport":
        """A report restricted to the given codes or code-family prefixes
        (``"P3301"`` or ``"P33"``; see :func:`expand_codes`)."""
        wanted = expand_codes(codes)
        return AnalysisReport(
            subject=self.subject,
            diagnostics=tuple(d for d in self.diagnostics
                              if d.code in wanted),
            passes_run=self.passes_run)

    def ignore(self, codes: Iterable[str]) -> "AnalysisReport":
        """A report with the given codes (or code-family prefixes) removed
        (``select``'s complement; the CLI's ``--ignore``)."""
        dropped = expand_codes(codes)
        return AnalysisReport(
            subject=self.subject,
            diagnostics=tuple(d for d in self.diagnostics
                              if d.code not in dropped),
            passes_run=self.passes_run)

    def render_text(self) -> str:
        return render_text(self)

    def render_json(self) -> str:
        return render_json(self)


def render_text(report: AnalysisReport) -> str:
    """Human-oriented multi-line rendering, worst findings first."""
    lines = [f"lint report for {report.subject}: "
             f"{len(report.errors)} error(s), "
             f"{len(report.warnings)} warning(s), "
             f"{len(report.infos)} note(s)"]
    ordered = sorted(report.diagnostics,
                     key=lambda d: (-int(d.severity), d.code, d.location))
    lines += ["  " + d.render() for d in ordered]
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Stable machine-readable rendering (one JSON object)."""
    payload = {
        "subject": report.subject,
        "summary": {
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "infos": len(report.infos),
        },
        "passes": list(report.passes_run),
        "diagnostics": [d.as_dict() for d in report.diagnostics],
    }
    return json.dumps(payload, indent=2, sort_keys=False)
