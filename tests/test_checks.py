"""check() on the objects the engine builds, and on hand-built invalid ones.

Constructors only check shapes; the module axioms, equivariance, d^2 = 0
and commutation with d are checked where session input enters the engine,
and by calling check().  The engine trusts what it builds itself, so this
suite checks every complex and chain map of the kernel constructions:
adjoints, the four composites, units and counits, the four cones and
their triangle maps, and the condition, identity, splitting and appendix
composites, with the complexes at both ends of each map.
"""

from __future__ import annotations

import random

import pytest

from spherica.algebras import trivial_algebra
from spherica.bimodules import (
    Bimodule,
    BimoduleError,
    BimoduleMap,
    flip,
    projective_bimodule,
)
from spherica.complexes import ChainMap, Complex, ComplexError, single_term
from spherica.kernels import (
    appendix_map,
    basic_identity_maps,
    condition3_map,
    condition4_map,
    kernel_ops,
    splitting_maps,
    triangular_identity_composites,
)
from spherica.linalg import Field, Matrix
from spherica.session import _elaborate, builtin_example, builtin_names
from spherica.spherical import random_kernel

from helpers import RANDOM_SHAPES, dual_numbers

F2 = Field.prime(2)
F101 = Field.prime(101)
Q = Field.rationals()


def _built_objects(p):
    """The complexes and chain maps the engine builds from kernel p."""
    ops = kernel_ops(p)
    complexes = [p.complex, ops.right_adjoint().kernel.complex,
                 ops.left_adjoint().kernel.complex]
    complexes += [t.complex for t in (ops.rf(), ops.fr(), ops.fl(), ops.lf())]
    maps = [ops.unit_right(), ops.counit_right(), ops.unit_left(), ops.counit_left()]
    for tw in (ops.twist(), ops.dual_cotwist()):
        complexes.append(tw.kernel.complex)
        maps += [tw.include, tw.project]
    for ct in (ops.cotwist(), ops.dual_twist()):
        complexes += [ct.kernel.complex, ct.cone_data.cone]
        maps += [ct.delta, ct.gamma, ct.cone_data.include_target, ct.cone_data.project_source]
    maps += [condition3_map(p).chain, condition4_map(p).chain, appendix_map(p).chain]
    maps += list(basic_identity_maps(p).values())
    maps += list(triangular_identity_composites(p).values())
    into_rfl, from_lfr, sum_cx = splitting_maps(p)
    complexes.append(sum_cx)
    maps += [into_rfl, from_lfr]
    for f in maps:
        complexes += [f.source, f.target]
    return complexes, maps


def _check_all(p) -> int:
    """check() every built complex with its terms and differentials, and
    every built chain map; returns how many objects were checked."""
    complexes, maps = _built_objects(p)
    seen: set[int] = set()
    for obj in maps + complexes:
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        obj.check()
        if isinstance(obj, Complex):
            for part in [*obj.terms.values(), *obj.diffs.values()]:
                if id(part) not in seen:
                    seen.add(id(part))
                    part.check()
    return len(seen)


@pytest.mark.parametrize("name", builtin_names())
def test_engine_objects_pass_check_on_builtin_kernels(name):
    _, kernels = _elaborate(builtin_example(name), F101)
    for k in kernels.values():
        assert _check_all(k) > 20


@pytest.mark.parametrize("field", [F2, F101], ids=["F2", "F101"])
@pytest.mark.parametrize("shape", sorted(RANDOM_SHAPES))
def test_engine_objects_pass_check_on_random_kernels(field, shape):
    src, tgt = RANDOM_SHAPES[shape]
    k = random_kernel(src(field), tgt(field), random.Random(5))
    assert k.complex.diffs      # so the Koszul signs of the tensors are exercised
    assert _check_all(k) > 20


def test_engine_objects_pass_check_over_rationals():
    _, kernels = _elaborate(builtin_example("dual_numbers"), Q)
    assert _check_all(kernels["P"]) > 20


# --- hand-built objects that check() rejects ------------------------------

K = trivial_algebra(F101)
D = dual_numbers()
X = D.radical_basis[0]


def _one(n: int = 1) -> Matrix:
    return Matrix.identity(F101, n)


def test_bimodule_check_rejects_a_non_unital_left_action():
    bad = Bimodule(K, K, [Matrix.zeros(F101, 1, 1)], [_one()], 1)
    with pytest.raises(BimoduleError, match="left unit does not act as identity"):
        bad.check()


def test_bimodule_check_rejects_a_non_multiplicative_action():
    # x acts invertibly, so x*x = 0 is not respected
    bad = Bimodule(D, K, [_one(), _one()], [_one()], 1)
    with pytest.raises(BimoduleError, match="left action is not a homomorphism"):
        bad.check()


def test_bimodule_check_rejects_actions_that_do_not_commute():
    # x acts by a nilpotent on the left and by its transpose on the right:
    # each action alone is a module structure, but they do not commute
    nil = Matrix.from_rows(F101, [[0, 0], [1, 0]])
    Bimodule(D, D, [_one(2), nil], [_one(2), nil], 2).check()
    bad = Bimodule(D, D, [_one(2), nil], [_one(2), nil.transpose()], 2)
    with pytest.raises(BimoduleError, match="left and right actions do not commute"):
        bad.check()


def test_bimodule_map_check_rejects_maps_that_do_not_intertwine():
    p = projective_bimodule(K, 0, D, 0)                  # D as a (k, D)-bimodule
    swap = Matrix.from_rows(F101, [[0, 1], [1, 0]])
    with pytest.raises(BimoduleError, match="map does not intertwine the right action"):
        BimoduleMap(p, p, swap).check()
    with pytest.raises(BimoduleError, match="map does not intertwine the left action"):
        BimoduleMap(flip(p), flip(p), swap, sides="left").check()
    BimoduleMap(p, p, swap, sides="left").check()        # k acts by scalars only


def test_chain_map_check_rejects_maps_that_do_not_commute_with_d():
    p = projective_bimodule(K, 0, D, 0)
    x = Complex(K, D, {0: p, 1: p}, {0: BimoduleMap(p, p, p.right_action[X])})
    x.check()
    f = ChainMap(single_term(p, 0), x, {0: _one(2)})
    with pytest.raises(ComplexError, match="chain map does not commute with d at degree 0"):
        f.check()
