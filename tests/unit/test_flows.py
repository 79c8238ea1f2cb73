"""Unit tests for message-flow derivation (repro.analysis.flows)."""

from repro.analysis.flows import (
    HOME_INITIATED,
    NOTIFICATION,
    REMOTE_INITIATED,
    derive_flows,
    flows_pass,
)
from repro.csp.ast import AnySender, VarSender, VarTarget
from repro.csp.builder import ProcessBuilder, inp, out, protocol, tau
from repro.protocols import (
    invalidate_protocol,
    mesi_protocol,
    migratory_protocol,
    msi_protocol,
)
from repro.refine.plan import RefinementConfig


def gap_protocol():
    """Remote can emit 'n' but the home never inputs it: incomplete cover."""
    h = ProcessBuilder.home("h", j=None)
    h.state("h0", inp("a", sender=AnySender(), bind_sender="j", to="h1"))
    h.state("h1", out("g", to="h0", target=VarTarget("j")))
    r = ProcessBuilder.remote("r")
    r.state("r0", tau("t", to="r0a"), tau("u", to="r0n"))
    r.state("r0a", out("a", to="r1"))
    r.state("r0n", out("n", to="r0"))
    r.state("r1", inp("g", to="r0"))
    return protocol("gapper", h, r)


class TestLibraryInventories:
    def test_migratory_flows(self, migratory):
        graph = derive_flows(migratory)
        assert graph.stable_states == frozenset({"E", "F"})
        assert graph.complete
        by_name = {f.name: f for f in graph.flows}
        assert set(by_name) == {"req@F", "req@E", "LR@E"}
        assert by_name["req@F"].kind == REMOTE_INITIATED
        assert by_name["LR@E"].kind == NOTIFICATION
        # the E-side grant bounces between invalidate and grant legs
        assert by_name["req@E"].message_cost > by_name["req@F"].message_cost

    def test_all_library_protocols_cover_completely(self, msi, invalidate):
        for proto in (msi, invalidate, mesi_protocol(), migratory_protocol()):
            graph = derive_flows(proto)
            assert graph.complete, graph.describe()
            assert graph.flows

    def test_mesi_stable_states_include_exclusive(self):
        graph = derive_flows(mesi_protocol())
        assert graph.stable_states == frozenset({"F", "Sh", "X"})

    def test_msi_nested_flows_marked(self, msi):
        graph = derive_flows(msi)
        nested = {f.name for f in graph.flows if not f.stable_entry}
        # the upgrade/evict requests that arrive while the home is already
        # mid-transaction root nested (non-stable-entry) flows
        assert "evS@W.send" in nested
        assert "reqU@W.send" in nested
        for f in graph.flows:
            if not f.stable_entry:
                assert f.entry_state not in graph.stable_states

    def test_cycle_flag_set_on_deny_loops(self, invalidate):
        graph = derive_flows(invalidate)
        cyclic = {f.name for f in graph.flows if f.has_cycle}
        assert "reqW@Sh" in cyclic  # deny loop back to the wait state
        assert "reqR@F" not in cyclic

    def test_requester_region_is_tau_closed(self, migratory):
        graph = derive_flows(migratory)
        remote = migratory.remote
        for flow in graph.flows:
            for state in flow.requester_region:
                assert remote.tau_closure(state) <= flow.requester_region


class TestFusionSharing:
    def test_fused_pairs_recorded(self, msi):
        graph = derive_flows(msi)
        assert graph.fused  # section 3.3 pairs chosen by default
        plain = derive_flows(msi, config=RefinementConfig(use_reqreply=False))
        assert plain.fused == ()
        # fusion changes the refined wiring, not the rendezvous count
        assert {f.name for f in graph.flows} == {f.name for f in plain.flows}


class TestCoverage:
    def test_gap_protocol_incomplete(self):
        graph = derive_flows(gap_protocol())
        assert not graph.complete
        assert any("!n" in item for item in graph.uncovered)

    def test_flows_pass_reports_p4501_and_p4506(self, migratory):
        graph = derive_flows(gap_protocol())
        codes = {d.code for d in flows_pass(gap_protocol(), graph=graph)}
        assert {"P4501", "P4506"} <= codes
        clean = derive_flows(migratory)
        codes = {d.code for d in flows_pass(migratory, graph=clean)}
        assert codes == {"P4506"}

    def test_flow_lookup(self, migratory):
        graph = derive_flows(migratory)
        assert graph.flow("req@F").request_msg == "req"
        try:
            graph.flow("nope")
        except KeyError:
            pass
        else:  # pragma: no cover - defensive
            raise AssertionError("expected KeyError")


class TestSerialization:
    def test_as_dict_round_trips_to_json(self, msi):
        import json

        graph = derive_flows(msi)
        doc = json.loads(json.dumps(graph.as_dict()))
        assert doc["protocol"] == "msi"
        assert doc["complete"] is True
        assert len(doc["flows"]) == len(graph.flows)
        for flow_doc in doc["flows"]:
            assert {"name", "kind", "request", "events"} <= set(flow_doc)

    def test_describe_mentions_every_flow(self, invalidate):
        graph = derive_flows(invalidate)
        text = graph.describe()
        for flow in graph.flows:
            assert flow.name in text


class TestStaticHelpers:
    def test_home_initiated_constant_exists(self):
        # the kind taxonomy is part of the public vocabulary
        assert HOME_INITIATED == "home-initiated"
