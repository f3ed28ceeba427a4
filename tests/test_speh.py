import json
import random
from fractions import Fraction

import pytest

from klyachko.cli import main
from klyachko.errors import EmptyBlock
from klyachko.speh import (
    Block,
    kappa,
    parameter_degree,
    product_highest_derivative,
    validate_unitary,
)
from oracles import Label, Multisegment, Segment, contragredient, paired, plain, speh_multisegment

RHO = Label("rho")


def test_speh_single_point():
    block = plain(RHO, 1, 1)
    assert speh_multisegment(block) == Multisegment([Segment(RHO, 0, 0)])


def test_speh_d2_t2():
    block = plain(RHO, 2, 2)
    expected = Multisegment(
        [Segment(RHO, -1, 0), Segment(RHO, 0, 1)]
    )
    assert speh_multisegment(block) == expected


def test_speh_twisted_strip():
    block = plain(RHO, 1, 3, Fraction(1, 4))
    expected = Multisegment([Segment(RHO, Fraction(-3, 4), Fraction(5, 4))])
    got = speh_multisegment(block)
    assert got == expected
    assert got.degree == 3 * RHO.degree


def test_speh_block_degree():
    block = plain(Label("tau", 2), 3, 4)
    assert product_highest_derivative([block])[0] == 6  # the degree of delta
    assert parameter_degree((block,)) == 24
    assert speh_multisegment(block).degree == 24


def test_empty_block_errors():
    empty = plain(RHO, 1, 0)
    with pytest.raises(EmptyBlock):
        speh_multisegment(empty)
    with pytest.raises(EmptyBlock):
        product_highest_derivative([plain(RHO, 1, 2), empty])


def test_highest_derivative_step():
    stepped = plain(RHO, 1, 3, Fraction(-1, 2))
    assert product_highest_derivative([plain(RHO, 1, 4)]) == (1, [stepped])
    assert product_highest_derivative([plain(RHO, 1, 1)]) == (1, [])


def test_derivative_degree_drop():
    block = plain(Label("tau", 3), 2, 5)
    order, [stepped] = product_highest_derivative([block])
    assert parameter_degree((block,)) - parameter_degree((stepped,)) == order == 6


def test_derivative_coherence_random():
    """Shortening every segment of the Speh multisegment equals stepping
    the block parameters (t, alpha) -> (t-1, alpha-1/2), exactly."""
    rng = random.Random(2024)
    alphas = [Fraction(0), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)]
    for _ in range(1000):
        block = plain(
            Label(rng.choice("abc"), rng.randrange(1, 5)),
            rng.randrange(1, 5),
            rng.randrange(1, 7),
            rng.choice(alphas),
        )
        _, stepped = product_highest_derivative([block])
        lhs = speh_multisegment(block).derivative()
        rhs = speh_multisegment(stepped[0]) if stepped else Multisegment()
        assert lhs == rhs


def test_product_derivative_single():
    tau = Label("tau", 2)
    order, blocks = product_highest_derivative([plain(tau, 1, 3)])
    assert order == 2
    assert blocks == [plain(tau, 1, 2, Fraction(-1, 2))]
    assert all(type(b) is Block for b in blocks)


def test_product_derivative_generic_dies():
    order, blocks = product_highest_derivative([plain(Label("a"), 1, 1), plain(Label("b"), 1, 1)])
    assert order == 2
    assert blocks == []


def test_product_derivative_degree_accounting():
    rng = random.Random(5)
    for _ in range(200):
        blocks = [
            plain(Label(rng.choice("xyz"), rng.randrange(1, 4)),
                  rng.randrange(1, 4), rng.randrange(1, 5))
            for _ in range(rng.randrange(1, 4))
        ]
        order, stepped = product_highest_derivative(blocks)
        assert parameter_degree(blocks) - order == parameter_degree(stepped)
        assert order == sum(b.degree * b.d for b in blocks)


# -- Tadic parameters and kappa -------------------------------------------


def test_kappa_single_block_closed_form():
    for r0 in range(1, 7):
        for d in range(1, 5):
            for t in range(1, 10):
                param = (plain(Label("rho", r0), d, t),)
                r, k = kappa(param)
                assert k == r0 * d * (t // 2)
                assert r + 2 * k == parameter_degree(param) == r0 * d * t


def test_kappa_even_blocks_purely_symplectic():
    param = (plain(RHO, 1, 2), plain(Label("tau"), 1, 4))
    assert kappa(param) == (0, parameter_degree(param) // 2) == (0, 3)


def test_kappa_all_t1_whittaker():
    param = tuple(plain(Label(c), 1, 1) for c in "abc")
    assert kappa(param) == (3, 0)


def test_kappa_paired_counts_twice():
    param = (paired(RHO, 1, 3, Fraction(1, 4)),)
    assert parameter_degree(param) == 6
    assert kappa(param) == (2, 2)


def test_kappa_mixed_theorem_shape():
    # U(delta', 2m') x U(delta, 2m+1): r = deg delta, k = m' deg' + m deg
    delta_even = Label("s", 2)   # deg 2, t = 4: m' = 2
    delta_odd = Label("r", 1)    # deg 1 with d = 3: deg delta = 3, t = 5: m = 2
    param = (plain(delta_even, 1, 4), plain(delta_odd, 3, 5))
    r, k = kappa(param)
    assert r == 3
    assert k == 2 * 2 + 2 * 3
    assert r + 2 * k == parameter_degree(param) == 8 + 15


def test_kappa_equal_odd_t_closed_form():
    # several blocks sharing one odd t: k = (sum of delta degrees) * floor(t/2)
    for t in (1, 3, 5, 7, 9):
        param = (plain(Label("a", 2), 1, t), plain(Label("b"), 3, t))
        r, k = kappa(param)
        assert k == (2 + 3) * (t // 2)
        assert r == 5
        assert r + 2 * k == parameter_degree(param) == 5 * t


def test_contragredient_involution_and_kappa_invariance():
    rng = random.Random(99)
    for _ in range(1000):
        self_dual = {name for name in "uvw" if rng.random() < 0.3}
        entries = []
        for _ in range(rng.randrange(1, 4)):
            rho = Label(rng.choice("uvw"), rng.randrange(1, 4), dual=rng.random() < 0.3)
            make = paired if rng.random() < 0.4 else plain
            entries.append(make(rho, rng.randrange(1, 4), rng.randrange(1, 6),
                                Fraction(rng.randrange(-2, 3), 4)))
        param = tuple(sorted(entries))
        dual = contragredient(param, self_dual)
        assert contragredient(dual, self_dual) == param
        assert kappa(dual) == kappa(param)
        assert parameter_degree(dual) == parameter_degree(param)


def test_contragredient_fixes_self_dual_plain_block():
    param = (plain(RHO, 2, 3),)
    assert contragredient(param, {"rho"}) == param
    assert contragredient(param) == (plain(Label("rho", dual=True), 2, 3),)


def test_contragredient_preserves_pair_representative():
    param = (paired(RHO, 1, 2, Fraction(1, 4)),)
    dual = contragredient(param, {"rho"})
    assert dual == param  # pair swap absorbed into the positive representative


def test_validate_unitary():
    assert validate_unitary((plain(RHO, 1, 3),))
    assert validate_unitary((paired(RHO, 1, 2, Fraction(1, 4)),))
    assert not validate_unitary((paired(RHO, 1, 2, Fraction(1, 2)),))
    assert not validate_unitary((plain(RHO, 1, 3, Fraction(1, 4)),))


def test_dual_model_type(capsys):
    """`kappa --format json` names the model H_{r,2k} with psi_r and the
    contragredient's model on the primed family H'_{2k,r}, at r = 0 and
    at k = 0 too."""
    cases = [
        ("U(rho:1,1,5)@0", {"r": 1, "k": 2}, "H_{1,4} with psi_1", "H'_{4,1}", "conjugate psi'_1"),
        ("U(rho:1,1,2)@0", {"r": 0, "k": 1}, "H_{0,2} with psi_0", "H'_{2,0}", "conjugate psi'_0"),
        ("U(a:1,1,1)@0 x U(b:1,1,1)@0 x U(c:1,1,1)@0", {"r": 3, "k": 0}, "H_{3,0} with psi_3",
         "H'_{0,3}", "conjugate psi'_3"),
    ]
    for expr, kt, model, group, character in cases:
        assert main(["kappa", expr, "--format", "json"]) == 0
        js = json.loads(capsys.readouterr().out)
        assert (js["kappa"], js["model"]) == (kt, model)
        assert js["dual_model"] == {"group": group, "character": character,
                                    "applies_to": "contragredient"}

