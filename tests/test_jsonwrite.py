"""The JSON writer of ``--format json`` against its oracle,
``json.dumps(value, indent=2, sort_keys=True)``."""

import json
import random
from decimal import Decimal

import pytest

from siegellift._jsonwrite import dumps

#: Characters that exercise every branch of the string encoder: plain,
#: escaped, control, non-ASCII, astral and a lone surrogate.
CHARS = ["a", "Z", "0", " ", "-", '"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00",
         "\x1f", "\x7f", "é", "€", " ", "\U0001F600", "\U00010000", "\ud800"]

SCALARS = [0, 1, -1, True, False, None, 2**64, -(2**200), 10**80 + 7, 0.0, -0.0, 0.1, 1e300,
           -1e-300, 5e-324, float("nan"), float("inf"), float("-inf"), "", "1", "-0"]


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_scalar(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(SCALARS)
    if kind == 1:
        return rng.randint(-(10**40), 10**40)
    if kind == 2:
        return rng.uniform(-1e6, 1e6)
    return random_string(rng)


def random_value(rng: random.Random, depth: int, made: list):
    """A scalar or a container up to ``depth`` levels deep; a dict made
    earlier (in ``made``) is sometimes put in again, at any depth, as the
    payloads of the CLI share the dict of two equal sides."""
    if depth == 0 or rng.random() < 0.3:
        return random_scalar(rng)
    kind = rng.randrange(6)
    if kind == 0 and made:
        return rng.choice(made)
    if kind == 1:  # a list of strings, as the coefficients of a factor are written
        return [str(rng.randint(-(10**30), 10**30)) if rng.random() < 0.8 else random_string(rng)
                for _ in range(rng.randrange(8))]
    items = [random_value(rng, depth - 1, made) for _ in range(rng.randrange(5))]
    if kind == 2:
        return tuple(items)
    if kind == 3:
        return items
    value = {random_string(rng): item for item in items}
    made.append(value)
    return value


def test_writer_matches_json_dumps_on_random_values():
    rng = random.Random(20260418)
    made = []
    for _ in range(400):
        value = random_value(rng, 5, made)
        assert dumps(value) == oracle(value)


@pytest.mark.parametrize(
    "value",
    SCALARS + [[], {}, (), [[]], {"": {}}, ("x", 1), ["x", [], {}], [True, 1, False, 0, 1.0]],
)
def test_writer_matches_json_dumps_on_edge_values(value):
    assert dumps(value) == oracle(value)
    assert dumps([value, value]) == oracle([value, value])


def test_writer_spells_nonfinite_floats_as_json_dumps():
    assert dumps([float("nan"), float("inf"), float("-inf"), -0.0]) == (
        "[\n  NaN,\n  Infinity,\n  -Infinity,\n  -0.0\n]"
    )


def test_a_dict_shared_at_two_depths_is_written_at_each():
    shared = {"coeffs": ["1", "-2", "11"], "p": 11}
    value = {"a": shared, "b": [shared, {"c": shared}], "d": shared}
    assert dumps(value) == oracle(value)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"bytes", object(), Decimal("1.5"), 1j, {1: "int key"}, {("a",): 1},
     ["a", "b", b"late"], {"a": [{"b": {2}}]}],
    ids=["set", "bytes", "object", "decimal", "complex", "int-key", "tuple-key", "late-item",
         "nested"],
)
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        dumps(value)
