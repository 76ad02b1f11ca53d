"""Archimedean parameter calculus and Siegel-weight classification."""

import pytest

from siegellift import ArchParam, SiegelKind, classify, from_newform, sym3_arch, tensor_arch
from siegellift.archimedean import to_json
from siegellift.errors import InputError


def test_from_newform():
    assert from_newform(2).exponents == (1,) and from_newform(2).weight == 1
    assert from_newform(12).exponents == (11,)
    with pytest.raises(InputError):
        from_newform(1)


def test_sym3():
    assert sym3_arch(from_newform(2)).exponents == (3, 1)
    assert sym3_arch(from_newform(12)).exponents == (33, 11)
    assert sym3_arch(ArchParam((3,), 3)).exponents == (9, 3)
    assert sym3_arch(from_newform(12)).weight == 33
    with pytest.raises(InputError, match="^symmetric cube needs a size-1 parameter, got size 2$"):
        sym3_arch(ArchParam((3, 1), 3))


def test_tensor():
    assert tensor_arch(ArchParam((3,), 3), ArchParam((2,), 2)).exponents == (5, 1)
    assert tensor_arch(ArchParam((1,), 1), ArchParam((4,), 4)).exponents == (5, 3)
    with pytest.raises(InputError, match=r"^tensor of equal exponents 2 degenerates \(zero exponent\)$"):
        tensor_arch(ArchParam((2,), 2), ArchParam((2,), 2))


def test_tensor_symmetric():
    for j, w in [(1, 4), (3, 2), (7, 5)]:
        a, b = ArchParam((j,), j), ArchParam((w,), w)
        assert tensor_arch(a, b) == tensor_arch(b, a)


def test_classify_examples():
    c = classify(ArchParam((3, 1), 3))
    assert c.regular and c.algebraic
    assert c.siegel_kind is SiegelKind.SCALAR and c.scalar_weight == 3
    c = classify(ArchParam((5, 1), 5))
    assert c.scalar_weight == 4
    c = classify(ArchParam((33, 11), 33))
    assert c.siegel_kind is SiegelKind.VECTOR and c.vector_weight == (33, 11)


def test_classify_scalar_family():
    # {2k-3, 1} classifies as scalar weight k; k = 2 degenerates (exponents
    # collide) and is non-regular, so the family starts at k = 3
    for k in range(3, 51):
        c = classify(ArchParam((2 * k - 3, 1), 2 * k - 3))
        assert c.siegel_kind is SiegelKind.SCALAR and c.scalar_weight == k
    degenerate = classify(ArchParam((1, 1), 1))
    assert not degenerate.regular and degenerate.siegel_kind is SiegelKind.NONE


def test_nonalgebraic_detected():
    c = classify(ArchParam((4, 1), 3))
    assert c.regular and not c.algebraic and c.siegel_kind is SiegelKind.NONE


def test_positive_exponents_enforced():
    with pytest.raises(InputError):
        ArchParam((0, 2), 2)
    with pytest.raises(InputError):
        ArchParam((-1,), 1)


def test_algebraicity_preserved_by_transfers():
    # same-parity inputs keep every exponent congruent to the weight mod 2
    for k in range(2, 14):
        p = sym3_arch(from_newform(k))
        assert all((e - p.weight) % 2 == 0 for e in p.exponents)
        for w in range(k % 2 + 2, 12, 2):
            if w == k - 1:
                continue
            t = tensor_arch(from_newform(k), ArchParam((w,), w))
            assert all((e - t.weight) % 2 == 0 for e in t.exponents)


def test_json_shape():
    data = to_json(ArchParam((3, 1), 3))
    assert data == {"exponents": [3, 1], "weight": 3, "siegel": {"scalar": 3}}
    data = to_json(ArchParam((33, 11), 33))
    assert data["siegel"] == {"vector": [33, 11]}
    assert to_json(ArchParam((1, 1), 1))["siegel"] is None
