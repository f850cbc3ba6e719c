"""Malformed input files and rational literals exit 2 or 3 with a JSON error.

A derandomized fuzz over the four JSON inputs of the command line (--family,
--budgets, --config, --realize) and over the rational literals of --w. Every
case is malformed by construction: a value of the wrong type, a missing or
unknown key, a literal out of range or not a literal at all, or text that is
not JSON. Each runs `cli.main` in process and must return 2 or 3 within a
time bound, with stdout empty and one JSON error object on stderr.
"""

import json
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sawlab.cli import main

SECONDS = 5.0

FAMILY = {"shape": "+-+", "w": ["7/10", "3/10"]}
BUDGETS = {"k": 4}
CONFIG = {
    "shape": "+-",
    "grid": {"kind": "line", "start": ["1/2"], "stop": ["1"], "steps": 3},
    "output": {"csv": "g.csv", "manifest": "g.jsonl"},
}
REALIZE = {"shape": "+-", "depth": 2, "signs": [[[1], [-1]]]}

# (argv with FILE for the input, valid input object)
CHANNELS = {
    "family": (["describe", "--family", "FILE"], FAMILY),
    "budgets": (["classify", "--shape", "+-", "--w", "4/5", "--budgets", "FILE"], BUDGETS),
    "config": (["scan", "--config", "FILE"], CONFIG),
    "realize": (["kneading", "--realize", "FILE"], REALIZE),
}

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-10**6, 10**6)
    | st.floats()  # json writes NaN and Infinity, which json reads back
    | st.text(max_size=8)
)
JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

# text that does not parse as a rational: not a literal at all, or one whose
# exponent or digit count is refused. An exponent from 10^4 to 10^7 must be
# refused before 10**exponent is built; it stays below 10^8 so that a
# regression costs minutes, not gigabytes.
UNPARSED_LITERALS = st.one_of(
    st.integers(10**4, 10**7).map(lambda e: f"1e-{e}"),
    st.integers(4301, 9999).map(lambda e: f"1e-{e}"),
    st.sampled_from(["", " ", "1/0", "0/0", "1//2", "1/2/3", "0x1", "nan", "inf", "1e",
                     "e5", "--1", "1/-2", "½", "1_/2", "0.5.5", "1/2,1/3"]),
    st.text(alphabet="0123456789/.eE+-_ ,", max_size=8).map(lambda s: s + "x"),
)
# literals that are not a height in [0, 1]. A scan grid endpoint may be one:
# the cells outside the family are Skipped rows, and the scan exits 0
BAD_LITERALS = st.one_of(
    st.fractions(max_denominator=10**6).filter(lambda q: not 0 <= q <= 1).map(str),
    UNPARSED_LITERALS,
)


def _is_sign_table(signs, depth):
    return (
        isinstance(signs, list)
        and len(signs) == 1
        and all(isinstance(row, list) and len(row) == depth for row in signs)
        and all(isinstance(v, list) and len(v) == 1 and v[0] in (-1, 0, 1)
                and type(v[0]) is int for row in signs for v in row)
    )


DROP = object()


def _replace(obj, path, value=DROP):
    """A deep copy of obj with the value at path (keys and indices) replaced,
    or deleted when no value is given."""
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return obj


NOT_A_DICT = JSON.filter(lambda v: not isinstance(v, dict))
NOT_A_LIST = JSON.filter(lambda v: not isinstance(v, list))
NOT_A_STR = JSON.filter(lambda v: not isinstance(v, str))
NOT_AN_INT = JSON.filter(lambda v: type(v) is not int)
BAD_SHAPE = st.text(alphabet="+- x", max_size=6)

MALFORMED = {
    "family": st.one_of(
        NOT_A_DICT,
        st.sampled_from([("shape",), ("w",)]).map(lambda p: _replace(FAMILY, p)),
        NOT_A_STR.map(lambda v: _replace(FAMILY, ("shape",), v)),
        BAD_SHAPE.filter(lambda s: s.strip() != "+-+").map(lambda v: _replace(FAMILY, ("shape",), v)),
        NOT_A_LIST.map(lambda v: _replace(FAMILY, ("w",), v)),
        st.lists(st.just("1/2"), max_size=4).filter(lambda w: len(w) != 2)
        .map(lambda v: _replace(FAMILY, ("w",), v)),
        st.tuples(st.integers(0, 1), NOT_A_STR | BAD_LITERALS)
        .map(lambda iv: _replace(FAMILY, ("w", iv[0]), iv[1])),
        # admissible literals in the wrong order: both heights equal or swapped
        st.sampled_from([["3/10", "7/10"], ["1/2", "1/2"], ["0", "1"]])
        .map(lambda v: _replace(FAMILY, ("w",), v)),
    ),
    "budgets": st.one_of(
        NOT_A_DICT,
        st.tuples(st.text(max_size=8).filter(lambda k: k != "k"), st.integers(1, 8))
        .map(lambda kv: {**BUDGETS, kv[0]: kv[1]}),
        st.sampled_from(["k", "piece_budget", "partition_budget", "step_budget", "tower_depth"])
        .flatmap(lambda key: (NOT_AN_INT | st.integers(-10**6, 0)).map(lambda v: {key: v})),
    ),
    "config": st.one_of(
        NOT_A_DICT,
        st.sampled_from([("shape",), ("grid",), ("output",), ("grid", "kind"), ("grid", "start"),
                         ("grid", "stop"), ("grid", "steps"), ("output", "csv"),
                         ("output", "manifest")]).map(lambda p: _replace(CONFIG, p)),
        NOT_A_STR.map(lambda v: _replace(CONFIG, ("shape",), v)),
        NOT_A_DICT.map(lambda v: _replace(CONFIG, ("grid",), v)),
        NOT_A_DICT.map(lambda v: _replace(CONFIG, ("output",), v)),
        JSON.filter(lambda v: v not in ("line", "product"))
        .map(lambda v: _replace(CONFIG, ("grid", "kind"), v)),
        (NOT_AN_INT | st.integers(-10**6, 0)).map(lambda v: _replace(CONFIG, ("grid", "steps"), v)),
        st.sampled_from(["start", "stop"]).flatmap(
            lambda end: (NOT_A_LIST | UNPARSED_LITERALS.map(lambda q: [q]) | st.just(["1/2", "1/2"]))
            .map(lambda v: _replace(CONFIG, ("grid", end), v))
        ),
        st.sampled_from(["csv", "manifest", "certificates"]).flatmap(
            lambda key: NOT_A_STR.filter(lambda v: v is not None)
            .map(lambda v: _replace(CONFIG, ("output", key), v))
        ),
        NOT_A_DICT.map(lambda v: {**CONFIG, "budgets": v}),
    ),
    "realize": st.one_of(
        NOT_A_DICT,
        st.sampled_from([("shape",), ("depth",), ("signs",)]).map(lambda p: _replace(REALIZE, p)),
        NOT_A_STR.map(lambda v: _replace(REALIZE, ("shape",), v)),
        BAD_SHAPE.filter(lambda s: s.strip() not in ("+-", "-+"))
        .map(lambda v: _replace(REALIZE, ("shape",), v)),
        (NOT_AN_INT | st.integers(-10**6, 1) | st.integers(3, 10**6))
        .map(lambda v: _replace(REALIZE, ("depth",), v)),
        JSON.filter(lambda v: not _is_sign_table(v, 2)).map(lambda v: _replace(REALIZE, ("signs",), v)),
    ),
}

BAD_TEXT = st.text(max_size=20).filter(lambda s: not _parses(s))


def _parses(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def _run(argv):
    """main(argv) as (exit code, seconds)."""
    start = time.monotonic()
    code = main(argv)
    return code, time.monotonic() - start


def _assert_json_error(capsys, code, seconds):
    out = capsys.readouterr()
    assert code in (2, 3), out.err
    assert seconds < SECONDS
    assert out.out == ""
    error = json.loads(out.err)
    assert set(error) == {"error", "kind"}


def test_the_valid_inputs_exit_0(tmp_path, capsys, monkeypatch):
    # each malformed case differs from one of these in one place
    monkeypatch.chdir(tmp_path)
    for argv, obj in CHANNELS.values():
        (tmp_path / "input.json").write_text(json.dumps(obj))
        assert main([("input.json" if a == "FILE" else a) for a in argv]) == 0
        assert capsys.readouterr().err == ""


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much],
)
@given(
    case=st.sampled_from(sorted(CHANNELS)).flatmap(
        lambda name: st.tuples(
            st.just(name),
            MALFORMED[name].map(json.dumps) | BAD_TEXT,
        )
    )
)
# an integer of more digits than Python reads
@example(case=("budgets", '{"k": 1' + "0" * 5000 + "}"))
@example(case=("family", json.dumps({"shape": "+-+", "w": ["1e-9000000", "3/10"]})))
@example(case=("config", json.dumps(_replace(CONFIG, ("grid", "start"), ["1e9999999"]))))
@example(case=("realize", json.dumps(_replace(REALIZE, ("signs",), [[[1], [2]]]))))
# a string or an object where a list belongs iterates as characters or keys
@example(case=("config", json.dumps(_replace(CONFIG, ("grid", "start"), "1"))))
@example(case=("config", json.dumps(_replace(CONFIG, ("grid", "stop"), {"1/2": None}))))
def test_malformed_input_files_exit_2_or_3_with_a_json_error(case, tmp_path, capsys, monkeypatch):
    name, text = case
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.json").write_text(text)
    argv, _ = CHANNELS[name]
    code, seconds = _run([("input.json" if a == "FILE" else a) for a in argv])
    _assert_json_error(capsys, code, seconds)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(literal=BAD_LITERALS, command=st.sampled_from(["describe", "kneading", "classify"]))
@example(literal="1e-10000000", command="describe")
@example(literal="1e-5000", command="describe")
@example(literal="5/4", command="classify")
def test_malformed_height_literals_exit_2_with_a_json_error(literal, command, capsys):
    code, seconds = _run([command, "--shape", "+-", "--w", literal])
    _assert_json_error(capsys, code, seconds)
