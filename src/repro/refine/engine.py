"""The refinement procedure (paper section 3).

:func:`refine` is the paper's headline operation: given a *validated*
rendezvous protocol and a :class:`~repro.refine.plan.RefinementConfig`, it
produces a :class:`~repro.refine.plan.RefinedProtocol` — the asynchronous
protocol obtained by splitting every rendezvous into request + ack/nack,
introducing transient states, and (optionally) fusing request/reply pairs.

Because the transformation of Tables 1 and 2 is *uniform* — the transient
behaviour depends only on the shape of the communication state, never on
the protocol's meaning — the refined protocol is represented as the
original AST plus a plan.  How each output guard refines is decided
from the plan in one place,
:func:`repro.refine.transitions.build_step_table`, and recorded in its
rows; :class:`~repro.semantics.asynchronous.AsyncSystem` interprets them
operationally and :func:`repro.viz.dot.refined_dot` materializes the
transient states for display.  This mirrors the paper, where Tables 1/2
are rule schemas applied on the fly, and keeps a single authoritative
implementation of the rules.

The engine performs all *static* work here:

* syntactic-restriction validation (section 2.4) — refinement soundness is
  only proven for the restricted protocol class;
* request/reply fusion detection and verification (section 3.3);
* sanity checks on fire-and-forget annotations (an extension used to model
  the hand-designed Avalanche protocol — see
  :mod:`repro.protocols.handwritten`).
"""

from __future__ import annotations

from ..analysis.manager import analyze_protocol, analyze_refined
from ..csp.ast import Protocol
from ..errors import CertificateError, RefinementError, ValidationError
from .plan import FusedPair, RefinedProtocol, RefinementConfig, RefinementPlan
from .reqreply import _reject_overlaps, check_pair, detect_fusable_pairs

__all__ = ["refine"]


def refine(protocol: Protocol,
           config: RefinementConfig | None = None,
           *,
           fused_pairs: tuple[FusedPair, ...] | None = None) -> RefinedProtocol:
    """Refine ``protocol`` into an asynchronous protocol.

    :param config: refinement parameters; defaults to the paper's standard
        configuration (k = 2, request/reply fusion enabled, progress and
        ack buffers reserved).
    :param fused_pairs: explicitly chosen request/reply pairs.  By default
        (``None``) all statically fusable pairs are detected and applied
        when ``config.use_reqreply``; pass an explicit tuple to fuse only
        those (each is still verified against the section 3.3 conditions).
    :raises RefinementError: for unfusable explicit pairs or bad
        fire-and-forget annotations.
    :raises ValidationError: if the protocol violates the syntactic
        restrictions the soundness proof needs.
    """
    config = config or RefinementConfig()
    _gate_on_diagnostics(protocol, config)

    if not config.use_reqreply:
        if fused_pairs:
            raise RefinementError(
                "fused_pairs given but config.use_reqreply is False")
        fused: tuple[FusedPair, ...] = ()
    elif fused_pairs is None:
        fused = detect_fusable_pairs(
            protocol, strict_cycles=config.strict_reqreply_cycles)
    else:
        for pair in fused_pairs:
            reason = check_pair(protocol, pair,
                                strict_cycles=config.strict_reqreply_cycles)
            if reason is not None:
                raise RefinementError(
                    f"pair {pair.describe()} cannot be fused: {reason}")
        _reject_overlaps(list(fused_pairs))
        fused = tuple(fused_pairs)

    _check_fire_and_forget(protocol, config, fused)

    plan = RefinementPlan(config=config, fused=fused)
    refined = RefinedProtocol(protocol=protocol, plan=plan)
    _gate_on_certificate(refined)
    return refined


def _gate_on_diagnostics(protocol: Protocol,
                         config: RefinementConfig) -> None:
    """Refuse to refine on any error-severity diagnostic.

    The analysis suite subsumes the old :func:`validate_protocol` call:
    every section 2.4 restriction violation comes back as an error-level
    :class:`~repro.analysis.diagnostics.Diagnostic`, and any *future*
    error-severity pass automatically becomes a refinement precondition
    too.  The raised :class:`ValidationError` carries the structured
    records in ``exc.diagnostics``.
    """
    # include_param=False: the gate must stay a pure AST-level check —
    # the parameterized (P45xx, P46xx) passes sweep the environment
    # abstraction and never raise errors anyway
    report = analyze_protocol(protocol, config=config, include_param=False)
    errors = report.errors
    if errors:
        detail = "\n  - ".join(f"[{d.code}] {d.legacy_text}" for d in errors)
        raise ValidationError(
            f"protocol {protocol.name!r} violates the paper's syntactic "
            f"restrictions:\n  - {detail}",
            diagnostics=errors)


def _gate_on_certificate(refined: RefinedProtocol) -> None:
    """Refuse to emit a refined protocol that fails its own certificate.

    Runs only the refined-machine passes (the rendezvous AST was already
    vetted by :func:`_gate_on_diagnostics`): the transient pass and the
    P44xx simulation certificate, which checks every step-table row's
    exits and discharges the paper's Equation 1 obligation for every
    transition schema instance.
    """
    report = analyze_refined(refined, include_protocol_passes=False)
    errors = report.errors
    if errors:
        detail = "\n  - ".join(f"[{d.code}] {d.legacy_text}" for d in errors)
        raise CertificateError(
            f"refined protocol {refined.name!r} fails its simulation "
            f"certificate:\n  - {detail}",
            diagnostics=errors)


def _check_fire_and_forget(protocol: Protocol, config: RefinementConfig,
                           fused: tuple[FusedPair, ...]) -> None:
    """Fire-and-forget annotations must name real, un-fused message types.

    One the remote receives is the transient pass's P3402, which
    :func:`_gate_on_certificate` raises."""
    if not config.fire_and_forget:
        return
    known = protocol.message_types
    fused_msgs = {p.request_msg for p in fused} | {p.reply_msg for p in fused}
    for msg in sorted(config.fire_and_forget):
        if msg not in known:
            raise RefinementError(
                f"fire-and-forget message {msg!r} does not occur in "
                f"protocol {protocol.name!r}")
        if msg in fused_msgs:
            raise RefinementError(
                f"message {msg!r} cannot be both fire-and-forget and part "
                "of a fused request/reply pair")
