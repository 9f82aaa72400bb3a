"""The shared control-spec grammar behind --faults, --drift, --replan, --slo.

Every row of the rule table runs against all four spec families, so a rule
can no longer hold for one family and not another.  The fuzz test feeds
strings over the grammar's alphabet to each family's resolver: each must
come back as a spec (or off) or as a one-line :class:`SpecError`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.faults import make_fault_model
from repro.serving.replanner import make_replan_policy
from repro.serving.spec import SpecError, is_off
from repro.serving.watchdog import make_slo_policy
from repro.serving.workload import parse_drift_spec


def _faults(text):
    model = make_fault_model(text, 600.0)
    return None if model is None else (model.events, model.processes)


def _drift(text):
    return None if is_off(text) else parse_drift_spec(text)


#: Each family's resolver, returning a comparable spec (``None`` when off).
RESOLVERS = {
    "faults": _faults,
    "drift": _drift,
    "replan": make_replan_policy,
    "slo": make_slo_policy,
}

#: A valid two-pair spec per family; every table row rewrites it.
BASES = {
    "faults": "crash@10:policy=drop,replica=0",
    "drift": "linear@10+60:to=0.5,from=0.9",
    "replan": "sla@1.5:patience=3,max=2",
    "slo": "p95@1.5:shed=0.2,retries=3",
}


def _first_pair(spec: str) -> str:
    return spec.partition(":")[2].split(",")[0]


def _upper_kind(spec: str) -> str:
    kind, _, rest = spec.partition("@")
    return f"{kind.upper()}@{rest}"


#: (row, rewrite of the base spec, outcome): "error" raises a SpecError,
#: "same" resolves like the base spec, "off" resolves to None.
RULES = [
    ("empty pair", lambda spec: spec.replace(",", ",,"), "error"),
    ("trailing comma", lambda spec: spec + ",", "error"),
    ("duplicate key", lambda spec: f"{spec},{_first_pair(spec)}", "error"),
    ("upper-case kind", _upper_kind, "same"),
    ("empty string", lambda spec: "", "off"),
]


@pytest.mark.parametrize("family", sorted(RESOLVERS))
@pytest.mark.parametrize("rewrite,outcome", [r[1:] for r in RULES], ids=[r[0] for r in RULES])
def test_rule_table(family, rewrite, outcome):
    resolve = RESOLVERS[family]
    spec = rewrite(BASES[family])
    if outcome == "error":
        with pytest.raises(SpecError) as excinfo:
            resolve(spec)
        assert "\n" not in str(excinfo.value)
    elif outcome == "same":
        assert resolve(spec) == resolve(BASES[family]) is not None
    else:
        assert resolve(spec) is None


@pytest.mark.parametrize(
    "family,spec",
    [
        ("faults", "crash@10:replica=inf"),
        ("faults", "drain@10:node=inf"),
        ("slo", "p95@1.5:patience=inf"),
        ("replan", "sla@1.5:max=inf"),
        ("faults", "crash@10:replica=1.5"),
        ("slo", "p95@1.5:retries=2.9"),
    ],
)
def test_integer_keys_take_only_finite_integers(family, spec):
    with pytest.raises(SpecError, match="must be"):
        RESOLVERS[family](spec)


@pytest.mark.parametrize(
    "family,spec",
    [
        ("faults", "crashes@0:rate=inf"),
        ("faults", "crash@nan"),
        ("replan", "sla@nan"),
        ("slo", "p95@nan"),
        ("drift", "linear@10+nan:to=0.5"),
    ],
)
def test_non_finite_numbers_are_rejected(family, spec):
    # Checks resolution only: at the parent an infinite crash rate parsed,
    # and materialising its timeline then never terminated.
    with pytest.raises(SpecError, match="must be finite"):
        RESOLVERS[family](spec)


def test_error_names_family_chunk_and_hint():
    with pytest.raises(SpecError) as excinfo:
        make_fault_model("crash@10;drain@x", 600.0)
    message = str(excinfo.value)
    assert message.startswith("malformed fault spec 'drain@x': bad start time 'x'; ")
    assert "expected 'kind@start" in message


_TOKENS = list("@+:;,=.-0123456789aexP") + [
    "nan", "inf", "none", "crash", "crashes", "drain", "straggler", "linear",
    "step", "sla", "p95", "to", "from", "rate", "replica", "node", "grace",
    "patience", "retries", "policy", "drop", "crash-storm",
]


@pytest.mark.parametrize("family", sorted(RESOLVERS))
@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join))
def test_fuzz_yields_a_spec_or_a_one_line_spec_error(family, text):
    try:
        RESOLVERS[family](text)
    except SpecError as error:
        assert "\n" not in str(error)
