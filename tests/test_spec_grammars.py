"""The five spec grammars share one ``key=value`` table helper.

``--noise`` (:class:`NoiseSpec`), ``rpc=`` (:class:`RpcSpec`),
``REPRO_CHECK`` (:class:`CheckConfig`), ``--faults`` clauses and what-if
queries all parse through :mod:`repro.core.grammar`. These tests pin the
strings the repo ships, check the shared rules (finite numbers, no
repeated or unknown keys, the caller's error class) on the inputs that
used to slip through, and fuzz every grammar's round trip.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.config import CheckConfig, parse_spec
from repro.faults import FaultSchedule, FaultSpecError, parse_fault_spec
from repro.obs.watch.channel import NoiseSpec, NoiseSpecError, parse_noise_spec
from repro.system.runtime.chaos import SCENARIO_NAMES, build_chaos_scenarios
from repro.system.runtime.rpc import RpcSpec, RpcSpecError, parse_rpc_spec
from repro.whatif import WhatIfQueryError, parse_query
from repro.whatif.queries import OPTION_KEYS, QueryOptions

# ---------------------------------------------------------------------------
# every shipped spec describes to the bytes it always did
# ---------------------------------------------------------------------------

#: E27's NOISE_LEVELS / MULTI_NOISE_LEVELS and the docs examples.
SHIPPED_NOISE = [
    (None, "off"),
    ("off", "off"),
    ("sample=2,drop=0.02", "sample=2,drop=0.02,seed=0"),
    ("sample=4,drop=0.1", "sample=4,drop=0.1,seed=0"),
    (
        "sample=4,drop=0.1,burst=0.02x5,delay=0.001,dup=0.01",
        "sample=4,drop=0.1,burst=0.02x5,delay=0.001,dup=0.01,seed=0",
    ),
    (
        "sample=4,drop=0.1,burst=0.02x5,delay=0.001,dup=0.01,seed=7",
        "sample=4,drop=0.1,burst=0.02x5,delay=0.001,dup=0.01,seed=7",
    ),
    ("burst=0.1", "burst=0.1x4,seed=0"),
]

#: The chaos suite's channel at the makespans its tests and E28 use,
#: and the docs example.
SHIPPED_RPC = [
    (None, "off"),
    ("off", "off"),
    (
        "drop=0.1,delay=0.0006,timeout=0.0006,backoff=0.0002",
        "drop=0.1,delay=0.0006,timeout=0.0006,retries=3,backoff=0.0002,seed=0",
    ),
    (
        "drop=0.1,delay=0.00037037,timeout=0.00037037,backoff=0.000123457",
        "drop=0.1,delay=0.00037037,timeout=0.00037037,retries=3,"
        "backoff=0.000123457,seed=0",
    ),
    (
        "drop=0.1,delay=0.0002193,timeout=0.0002193,backoff=7.31e-05",
        "drop=0.1,delay=0.0002193,timeout=0.0002193,retries=3,"
        "backoff=7.31e-05,seed=0",
    ),
    (
        "drop=0.1,delay=0.002",
        "drop=0.1,delay=0.002,timeout=0.05,retries=3,backoff=0.01,seed=0",
    ),
    (
        "drop=0.2,delay=0.01,dup=0.05,retries=2,seed=7",
        "drop=0.2,delay=0.01,dup=0.05,timeout=0.05,retries=2,backoff=0.01,seed=7",
    ),
]


@pytest.mark.parametrize("text,described", SHIPPED_NOISE)
def test_shipped_noise_specs_describe_unchanged(text, described):
    spec = parse_noise_spec(text)
    assert spec.describe() == described
    assert parse_noise_spec(described) == spec


@pytest.mark.parametrize("text,described", SHIPPED_RPC)
def test_shipped_rpc_specs_describe_unchanged(text, described):
    spec = parse_rpc_spec(text)
    assert spec.describe() == described
    assert parse_rpc_spec(described) == spec


def test_chaos_suite_channel_specs():
    scenarios = {s.name: s for s in build_chaos_scenarios(0.2, SCENARIO_NAMES)}
    channel = "drop=0.1,delay=0.0006,timeout=0.0006,backoff=0.0002"
    assert scenarios["lossy_channel"].rpc == channel
    (event,) = parse_fault_spec(scenarios["rpc_noise"].faults).control_events()
    assert event.spec == channel
    assert parse_rpc_spec(channel).describe() == SHIPPED_RPC[2][1]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("strict", CheckConfig()),
        ("collect:twin=1.0", CheckConfig(mode="collect", twin_sample=1.0)),
        (
            "collect:twin=0,max=50",
            CheckConfig(mode="collect", twin_sample=0.0, max_violations=50),
        ),
        (
            "strict:invariants=capacity+twin",
            CheckConfig(invariants=frozenset({"capacity", "twin"})),
        ),
        (
            "collect:twin=1.0,seed=3,twin_tol=1e-9,max=50",
            CheckConfig(
                mode="collect",
                twin_sample=1.0,
                seed=3,
                twin_tolerance=1e-9,
                max_violations=50,
            ),
        ),
    ],
)
def test_shipped_check_specs(text, expected):
    config = parse_spec(text)
    assert config == expected
    assert parse_spec(config.describe()) == config


@pytest.mark.parametrize(
    "text,expected",
    [
        ("degrade_link:h1-core@50%+8%,factor=0.5", QueryOptions(factor=0.5)),
        ("degrade_link:h1-core@25%+40%,factor=0.3", QueryOptions(factor=0.3)),
        ("kill_link:h2-core@60%+5%", QueryOptions()),
        ("submit_job:dp@70%", QueryOptions()),
        ("add_tenant:fsdp@70%,jobs=2", QueryOptions(jobs=2)),
        ("add_tenant:fsdp@50%,jobs=3", QueryOptions(jobs=3)),
        ("add_tenant:fsdp@50%", QueryOptions(jobs=2)),
        ("remove_job:fsdp7@0", QueryOptions()),
        ("submit_job:dp@1,layers=4,hosts=2", QueryOptions(layers=4, hosts=2)),
    ],
)
def test_shipped_whatif_queries_parse_to_typed_options(text, expected):
    assert parse_query(text).params == expected


def test_floats_describe_exactly():
    # ":g" would print 0.123457; the table falls back to repr.
    noise = parse_noise_spec("drop=0.1234567")
    assert noise.describe() == "drop=0.1234567,seed=0"
    assert parse_noise_spec(noise.describe()) == noise
    rpc = parse_rpc_spec("delay=0.1234567")
    assert parse_rpc_spec(rpc.describe()) == rpc


# ---------------------------------------------------------------------------
# inputs the hand-written parsers used to accept
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "parse,text,error",
    [
        (parse_fault_spec, "link_down:h0-h1@nan", FaultSpecError),
        (parse_fault_spec, "link_down:h0-h1@1+nan", FaultSpecError),
        (parse_fault_spec, "link_down:h0-h1@inf", FaultSpecError),
        (parse_fault_spec, "degrade:h0-h1@1,factor=0.5,factor=0.7", FaultSpecError),
        (parse_fault_spec, "flap:h0-h1@1,period=nan,count=2", FaultSpecError),
        (parse_fault_spec, "rpc_noise@1,drop=0.1,timeout=nan", FaultSpecError),
        (parse_noise_spec, "delay=nan", NoiseSpecError),
        (parse_noise_spec, "seed=3,seed=4", NoiseSpecError),
        (parse_rpc_spec, "timeout=nan", RpcSpecError),
        (parse_rpc_spec, "delay=inf", RpcSpecError),
        (parse_rpc_spec, "backoff=-inf", RpcSpecError),
        (parse_rpc_spec, "seed=3,seed=4", RpcSpecError),
        (parse_spec, "strict:twin_tol=nan", ValueError),
        (parse_spec, "strict:twin=nan", ValueError),
        (parse_spec, "strict:max=5,max_violations=6", ValueError),
        (parse_query, "degrade_link:h1-core@1,factor=nan", WhatIfQueryError),
        (parse_query, "degrade_link:h1-core@1,factor=0.5,factor=0.7", WhatIfQueryError),
        (parse_query, "kill_link:h1-core@1e999", WhatIfQueryError),
        (parse_query, "submit_job:dp@1,layer=4", WhatIfQueryError),
        (parse_query, "kill_link:h1-core@1,factor=0.3", WhatIfQueryError),
        (parse_query, "degrade_link:h1-core@1,factor=abc", WhatIfQueryError),
        (parse_query, "add_tenant:dp@1,jobs=0", WhatIfQueryError),
        (parse_query, "submit_job:dp@1,hosts=-1", WhatIfQueryError),
        (parse_query, "degrade_link:h1-core@1,factor=1", WhatIfQueryError),
    ],
)
def test_grammar_rejects(parse, text, error):
    with pytest.raises(error) as info:
        parse(text)
    assert type(info.value) is error


def test_rpc_noise_spec_is_a_json_field_only():
    inline = parse_fault_spec("rpc_noise@1.0+0.5,drop=0.1,delay=0.002")
    clause = FaultSchedule.from_json(
        [{"action": "rpc_noise", "time": 1.0, "duration": 0.5,
          "spec": "drop=0.1,delay=0.002"}]
    )
    assert clause == inline
    with pytest.raises(FaultSpecError):
        parse_fault_spec("rpc_noise@1.0,spec=drop=0.1")


def test_direct_construction_obeys_the_same_table():
    with pytest.raises(NoiseSpecError):
        NoiseSpec(delay=float("nan"))
    with pytest.raises(RpcSpecError):
        RpcSpec(timeout=float("inf"))
    with pytest.raises(ValueError):
        CheckConfig(twin_tolerance=float("nan"))


def test_unknown_key_lists_the_table():
    with pytest.raises(NoiseSpecError, match="sample, drop, burst, delay, dup, seed"):
        parse_noise_spec("jitter=0.1")
    with pytest.raises(ValueError, match="twin_tol, twin_tolerance"):
        parse_spec("strict:bogus=1")


# ---------------------------------------------------------------------------
# round-trip fuzz over every grammar
# ---------------------------------------------------------------------------


def _unit(**kwargs):
    return st.floats(0.0, 1.0, allow_nan=False, **kwargs)


def _span(low=0.0, high=1e3, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **kwargs)


_seeds = st.integers(-(2**63), 2**63)

noise_specs = st.builds(
    NoiseSpec,
    sample=st.integers(1, 64),
    drop=_unit(),
    burst=_unit(),
    burst_len=st.integers(1, 50),
    delay=_span(),
    dup=_unit(),
    seed=_seeds,
)
rpc_specs = st.builds(
    RpcSpec,
    drop=_unit(exclude_max=True),
    delay=_span(),
    dup=_unit(),
    timeout=_span(),
    retries=st.integers(0, 20),
    backoff=_span(),
    seed=_seeds,
)
check_configs = st.builds(
    CheckConfig,
    mode=st.sampled_from(["strict", "collect"]),
    twin_sample=_unit(),
    twin_tolerance=_span(),
    seed=_seeds,
    max_violations=st.integers(1, 10**6),
    invariants=st.frozensets(
        st.text(string.ascii_lowercase + "_", min_size=1, max_size=12), max_size=4
    ),
)


@settings(max_examples=200, deadline=None)
@given(noise_specs)
def test_noise_round_trip(spec):
    text = spec.describe()
    if spec.is_noop:
        # The identity channel spends no randomness: it reads "off"
        # whatever its seed.
        assert text == "off"
        assert parse_noise_spec(text).is_noop
    else:
        assert parse_noise_spec(text) == spec


@settings(max_examples=200, deadline=None)
@given(rpc_specs)
def test_rpc_round_trip(spec):
    text = spec.describe()
    if spec.is_noop:
        assert text == "off"
        assert parse_rpc_spec(text).is_noop
    else:
        assert parse_rpc_spec(text) == spec


@settings(max_examples=200, deadline=None)
@given(check_configs)
def test_check_round_trip(config):
    assert parse_spec(config.describe()) == config


_hosts = st.sampled_from(["h0", "h1", "h2", "leaf0", "core"])


@st.composite
def _link(draw):
    a, b = draw(_hosts), draw(_hosts)
    return f"{a}->{b}" if draw(st.booleans()) else f"{a}-{b}"


def _time(draw):
    return repr(draw(_span()))


def _positive(draw):
    return repr(draw(_span(exclude_min=True)))


def _factor(draw):
    return repr(draw(_unit(exclude_min=True, exclude_max=True)))


@st.composite
def fault_clauses(draw):
    action = draw(
        st.sampled_from(
            [
                "link_down",
                "degrade",
                "flap",
                "crash_scheduler",
                "crash_agent",
                "crash_coordinator",
                "partition_control",
                "rpc_noise",
            ]
        )
    )
    head = action
    if action in ("link_down", "degrade", "flap"):
        head += f":{draw(_link())}"
    when = _time(draw)
    if action != "flap" and action != "crash_scheduler" and draw(st.booleans()):
        when += f"+{_positive(draw)}"
    params = []
    if action == "degrade" or (action == "flap" and draw(st.booleans())):
        params.append(f"factor={_factor(draw)}")
    if action == "flap":
        params += [f"period={_positive(draw)}", f"count={draw(st.integers(1, 4))}"]
    wants_agent = action == "partition_control" and draw(st.booleans())
    if action == "crash_agent" or wants_agent:
        params.append(f"agent={draw(st.sampled_from(['job-a', 'dp0', 'x']))}")
    if action == "rpc_noise":
        params.append(draw(rpc_specs.filter(lambda s: not s.is_noop)).describe())
    return ",".join([f"{head}@{when}"] + params)


@settings(max_examples=200, deadline=None)
@given(st.lists(fault_clauses(), min_size=1, max_size=4))
def test_fault_clause_round_trip(clauses):
    schedule = parse_fault_spec("; ".join(clauses))
    restored = FaultSchedule.from_json(schedule.to_json())
    assert restored == schedule
    assert restored.to_json() == schedule.to_json()


_OPTION_VALUES = {
    "layers": st.integers(1, 64),
    "hosts": st.integers(0, 16),
    "jobs": st.integers(1, 8),
    "factor": _unit(exclude_min=True, exclude_max=True),
}


@st.composite
def whatif_queries(draw):
    kind = draw(st.sampled_from(sorted(OPTION_KEYS)))
    arg = {
        "submit_job": st.sampled_from(["dp", "fsdp", "pp", "tp"]),
        "add_tenant": st.sampled_from(["dp", "fsdp", "pp", "tp"]),
        "remove_job": st.sampled_from(["dp3", "fsdp7"]),
        "kill_link": _link(),
        "degrade_link": _link(),
    }[kind]
    text = f"{kind}:{draw(arg)}@{_time(draw)}{draw(st.sampled_from(['', '%']))}"
    if kind in ("kill_link", "degrade_link") and draw(st.booleans()):
        text += f"+{_positive(draw)}"
    chosen = {}
    for key in OPTION_KEYS[kind]:
        if draw(st.booleans()):
            chosen[key.field] = draw(_OPTION_VALUES[key.field])
    if kind == "add_tenant":
        chosen.setdefault("jobs", 2)
    text += "".join(f",{name}={value!r}" for name, value in chosen.items())
    return text, QueryOptions(**chosen)


@settings(max_examples=200, deadline=None)
@given(whatif_queries())
def test_whatif_typed_options_round_trip(case):
    text, expected = case
    assert parse_query(text).params == expected


_TOKENS = [
    "link_down", "degrade", "flap", "rpc_noise", "crash_agent", "kill_link",
    "degrade_link", "submit_job", "add_tenant", "remove_job", "strict",
    "collect", "off", ":", "@", "+", ",", "=", ";", "%", "x", "-", "->",
    "h0-h1", "1", "0.5", "nan", "inf", "-1", "1e999", "", " ", "factor",
    "period", "count", "agent", "spec", "seed", "drop", "delay", "dup",
    "timeout", "retries", "backoff", "sample", "burst", "twin", "twin_tol",
    "max", "invariants", "layers", "hosts", "jobs",
]
_HEADS = [
    "", "strict:", "collect:", "link_down:h0-h1@1,", "degrade:h0-h1@1+2,",
    "flap:h0-h1@1,", "rpc_noise@1,", "crash_agent@1,", "partition_control@1,",
    "submit_job:dp@1,", "add_tenant:dp@50%,", "degrade_link:h1-core@1,",
]
_KEYS = [token for token in _TOKENS if token.isidentifier()]
_VALUES = ["0.5", "1", "0", "-1", "2", "abc", "nan", "inf", "1e999", "", "x",
           "0.1x3", "0.1x", "3x0.1", "a+b", "drop=0.1"]
_pairs = st.lists(
    st.tuples(st.sampled_from(_KEYS), st.sampled_from(_VALUES)), max_size=4
).map(lambda pairs: ",".join(f"{key}={value}" for key, value in pairs))
_random_text = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_TOKENS), max_size=14).map("".join),
    st.tuples(st.sampled_from(_HEADS), _pairs).map("".join),
)


@pytest.mark.parametrize(
    "parse,error",
    [
        (parse_noise_spec, NoiseSpecError),
        (parse_rpc_spec, RpcSpecError),
        (parse_spec, ValueError),
        (parse_fault_spec, FaultSpecError),
        (parse_query, WhatIfQueryError),
    ],
    ids=["noise", "rpc", "check", "faults", "whatif"],
)
@settings(max_examples=300, deadline=None)
@given(text=_random_text)
def test_random_text_parses_or_raises_the_grammar_error(parse, error, text):
    try:
        parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is the assertion
        assert type(exc) is error, f"{type(exc).__name__}: {exc}"
