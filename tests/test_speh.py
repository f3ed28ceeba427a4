import json
import random
from fractions import Fraction

import pytest

from klyachko.cli import main
from klyachko.errors import EmptyBlock
from klyachko.speh import (
    CuspidalLabel,
    ParamBlock,
    SpehBlock,
    TadicParameter,
    kappa,
    product_highest_derivative,
    validate_unitary,
)
from oracles import Multisegment, Segment, contragredient, speh_multisegment

RHO = CuspidalLabel("rho")


def test_speh_single_point():
    block = SpehBlock(RHO, 1, 1)
    assert speh_multisegment(block) == Multisegment([Segment(RHO, 0, 0)])


def test_speh_d2_t2():
    block = SpehBlock(RHO, 2, 2)
    expected = Multisegment(
        [Segment(RHO, -1, 0), Segment(RHO, 0, 1)]
    )
    assert speh_multisegment(block) == expected


def test_speh_twisted_strip():
    block = SpehBlock(RHO, 1, 3, Fraction(1, 4))
    expected = Multisegment([Segment(RHO, Fraction(-3, 4), Fraction(5, 4))])
    got = speh_multisegment(block)
    assert got == expected
    assert got.degree == 3 * RHO.degree


def test_speh_block_degree():
    tau = CuspidalLabel("tau", 2)
    block = SpehBlock(tau, 3, 4)
    assert block.delta_degree == 6
    assert block.degree == 24
    assert speh_multisegment(block).degree == 24


def test_empty_block_errors():
    empty = SpehBlock(RHO, 1, 0)
    with pytest.raises(EmptyBlock):
        speh_multisegment(empty)
    with pytest.raises(EmptyBlock):
        empty.highest_derivative()


def test_highest_derivative_step():
    assert SpehBlock(RHO, 1, 4).highest_derivative() == SpehBlock(
        RHO, 1, 3, Fraction(-1, 2)
    )
    stepped = SpehBlock(RHO, 1, 1).highest_derivative()
    assert stepped.is_empty and stepped.alpha == Fraction(-1, 2)


def test_derivative_degree_drop():
    tau = CuspidalLabel("tau", 3)
    block = SpehBlock(tau, 2, 5)
    assert block.degree - block.highest_derivative().degree == block.delta_degree == 6


def test_derivative_coherence_random():
    """Shortening every segment of the Speh multisegment equals stepping
    the block parameters (t, alpha) -> (t-1, alpha-1/2), exactly."""
    rng = random.Random(2024)
    alphas = [Fraction(0), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)]
    for _ in range(1000):
        block = SpehBlock(
            CuspidalLabel(rng.choice("abc"), rng.randrange(1, 5)),
            rng.randrange(1, 5),
            rng.randrange(1, 7),
            rng.choice(alphas),
        )
        stepped = block.highest_derivative()
        lhs = speh_multisegment(block).derivative()
        rhs = Multisegment() if stepped.is_empty else speh_multisegment(stepped)
        assert lhs == rhs


def test_product_derivative_single():
    tau = CuspidalLabel("tau", 2)
    order, blocks = product_highest_derivative([SpehBlock(tau, 1, 3)])
    assert order == 2
    assert blocks == [SpehBlock(tau, 1, 2, Fraction(-1, 2))]


def test_product_derivative_generic_dies():
    order, blocks = product_highest_derivative(
        [SpehBlock(CuspidalLabel("a"), 1, 1), SpehBlock(CuspidalLabel("b"), 1, 1)]
    )
    assert order == 2
    assert blocks == []


def test_product_derivative_degree_accounting():
    rng = random.Random(5)
    for _ in range(200):
        blocks = [
            SpehBlock(CuspidalLabel(rng.choice("xyz"), rng.randrange(1, 4)),
                      rng.randrange(1, 4), rng.randrange(1, 5))
            for _ in range(rng.randrange(1, 4))
        ]
        n = sum(b.degree for b in blocks)
        order, stepped = product_highest_derivative(blocks)
        assert n - order == sum(b.degree for b in stepped)
        assert order == sum(b.delta_degree for b in blocks)


# -- Tadic parameters and kappa -------------------------------------------


def plain(rho, d, t, alpha=0):
    return ParamBlock(SpehBlock(rho, d, t, Fraction(alpha)))


def paired(rho, d, t, alpha):
    return ParamBlock(SpehBlock(rho, d, t, Fraction(alpha)), paired=True)


def test_kappa_single_block_closed_form():
    for r0 in range(1, 7):
        for d in range(1, 5):
            for t in range(1, 10):
                param = TadicParameter([plain(CuspidalLabel("rho", r0), d, t)])
                r, k = kappa(param)
                assert k == r0 * d * (t // 2)
                assert r + 2 * k == param.n == r0 * d * t


def test_kappa_even_blocks_purely_symplectic():
    param = TadicParameter([plain(RHO, 1, 2), plain(CuspidalLabel("tau"), 1, 4)])
    assert kappa(param) == (0, param.n // 2) == (0, 3)


def test_kappa_all_t1_whittaker():
    param = TadicParameter([plain(CuspidalLabel(c), 1, 1) for c in "abc"])
    assert kappa(param) == (3, 0)


def test_kappa_paired_counts_twice():
    param = TadicParameter([paired(RHO, 1, 3, Fraction(1, 4))])
    assert param.n == 6
    assert kappa(param) == (2, 2)


def test_kappa_mixed_theorem_shape():
    # U(delta', 2m') x U(delta, 2m+1): r = deg delta, k = m' deg' + m deg
    delta_even = CuspidalLabel("s", 2)   # deg 2, t = 4: m' = 2
    delta_odd = CuspidalLabel("r", 1)    # deg 1 with d = 3: deg delta = 3, t = 5: m = 2
    param = TadicParameter([plain(delta_even, 1, 4), plain(delta_odd, 3, 5)])
    r, k = kappa(param)
    assert r == 3
    assert k == 2 * 2 + 2 * 3
    assert r + 2 * k == param.n == 8 + 15


def test_kappa_equal_odd_t_closed_form():
    # several blocks sharing one odd t: k = (sum of delta degrees) * floor(t/2)
    for t in (1, 3, 5, 7, 9):
        param = TadicParameter([
            plain(CuspidalLabel("a", 2), 1, t),
            plain(CuspidalLabel("b"), 3, t),
        ])
        r, k = kappa(param)
        assert k == (2 + 3) * (t // 2)
        assert r == 5
        assert r + 2 * k == param.n == 5 * t


def test_contragredient_involution_and_kappa_invariance():
    rng = random.Random(99)
    for _ in range(1000):
        self_dual = {name for name in "uvw" if rng.random() < 0.3}
        entries = []
        for _ in range(rng.randrange(1, 4)):
            rho = CuspidalLabel(rng.choice("uvw"), rng.randrange(1, 4), dual=rng.random() < 0.3)
            block = SpehBlock(rho, rng.randrange(1, 4), rng.randrange(1, 6),
                              Fraction(rng.randrange(-2, 3), 4))
            entries.append(ParamBlock(block, paired=rng.random() < 0.4))
        param = TadicParameter(entries)
        dual = contragredient(param, self_dual)
        assert contragredient(dual, self_dual) == param
        assert kappa(dual) == kappa(param)
        assert dual.n == param.n


def test_contragredient_fixes_self_dual_plain_block():
    param = TadicParameter([plain(RHO, 2, 3)])
    assert contragredient(param, {"rho"}) == param
    assert contragredient(param) == TadicParameter([plain(CuspidalLabel("rho", dual=True), 2, 3)])


def test_contragredient_preserves_pair_representative():
    param = TadicParameter([paired(RHO, 1, 2, Fraction(1, 4))])
    dual = contragredient(param, {"rho"})
    assert dual == param  # pair swap absorbed into the positive representative


def test_validate_unitary():
    assert validate_unitary(TadicParameter([plain(RHO, 1, 3)]))
    assert validate_unitary(TadicParameter([paired(RHO, 1, 2, Fraction(1, 4))]))
    assert not validate_unitary(TadicParameter([paired(RHO, 1, 2, Fraction(1, 2))]))
    assert not validate_unitary(TadicParameter([plain(RHO, 1, 3, Fraction(1, 4))]))


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


def test_parameter_drops_empty_blocks():
    param = TadicParameter([plain(RHO, 1, 1), ParamBlock(SpehBlock(RHO, 1, 0))])
    assert len(param.entries) == 1
