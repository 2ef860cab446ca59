"""Identity by content: one group registry, memoization keyed by content."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from factorization_oracle import evaluate_factorization

from nilcone.algebra import NilpotentAlgebraSpec, StructuralError
from nilcone.bch import NilpotentGroup, get_group
from nilcone.coupling import CouplingSpec, builtin_coupling, coupling_kernels
from nilcone.geometry import horizontal_factorization
from nilcone.kernels import law_table

SRC = Path(__file__).resolve().parent.parent / "src"
ENGEL = {(1, 2): {3: 1}, (1, 3): {4: 1}}


def test_reused_builtin_name_raises():
    assert get_group("heisenberg3").dim == 3
    impostor = NilpotentAlgebraSpec.from_brackets(4, ENGEL, name="heisenberg3")
    with pytest.raises(StructuralError, match="heisenberg3"):
        get_group(impostor)
    assert get_group("heisenberg3").dim == 3


def test_reused_builtin_name_raises_before_the_builtin_is_built():
    # the other order needs a process whose registry has not seen the name
    code = (
        "from nilcone.algebra import NilpotentAlgebraSpec, StructuralError\n"
        "from nilcone.bch import get_group\n"
        f"spec = NilpotentAlgebraSpec.from_brackets(4, {ENGEL!r}, name='heisenberg3')\n"
        "try:\n"
        "    get_group(spec)\n"
        "except StructuralError:\n"
        "    print(get_group('heisenberg3').dim)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "3"


def test_reused_custom_name_raises():
    first = NilpotentAlgebraSpec.from_brackets(3, {(1, 2): {3: 7}}, name="reg-custom")
    clash = NilpotentAlgebraSpec.from_brackets(3, {(1, 2): {3: 8}}, name="reg-custom")
    grp = get_group(first)
    with pytest.raises(StructuralError, match="reg-custom"):
        get_group(clash)
    assert get_group("reg-custom") is grp
    assert get_group(first) is grp


def test_invalid_spec_is_refused_even_when_its_key_is_registered():
    get_group("abelian2")
    bad = NilpotentAlgebraSpec.from_brackets(2, {(1, 1): {2: 1}})
    with pytest.raises(StructuralError, match="must vanish"):
        get_group(bad)


def test_same_constants_give_the_same_group():
    twin = NilpotentAlgebraSpec.from_brackets(3, {(1, 2): {3: 1}}, name="reg-heis-alias")
    unnamed = NilpotentAlgebraSpec.from_brackets(3, {(2, 1): {3: -1}})
    grp = get_group("heisenberg3")
    assert get_group(twin) is grp
    assert get_group("reg-heis-alias") is grp
    assert get_group(unnamed) is grp
    assert get_group(grp) is grp


def test_unnamed_specs_get_distinct_resolvable_names():
    groups = [get_group(NilpotentAlgebraSpec.from_brackets(3, {(1, 2): {3: c}}))
              for c in (2, 5)]
    assert groups[0].name != groups[1].name
    for grp in groups:
        assert grp.name.startswith("algebra3-")
        assert get_group(grp.name) is grp
        assert get_group(grp.name).law_group.mul((1, 0, 0), (0, 1, 0))[:2] == (1, 1)
        fact = horizontal_factorization(grp, (0, 0, Fraction(1)))
        assert [idx for idx, _ in fact.terms] == [0, 1, 2, 3]
        back = evaluate_factorization(grp, fact)
        assert back == pytest.approx((0, 0, 1), abs=1e-12)


def test_law_table_is_never_stale():
    # Throwaway groups are built outside the registry and dropped at once:
    # a table cached by id(law) would be served to a later law at that id,
    # so the batch product must read the table the law itself holds.
    for i in range(300):
        spec = NilpotentAlgebraSpec.from_brackets(3, {(1, 2): {3: i + 1}})
        law = NilpotentGroup(spec, "throwaway").law_group
        assert law_table(law) is law.table
        assert [coef for _, coef, _ in law.table.flat[2]] == [(i + 1) / 2, -(i + 1) / 2]


def test_equal_couplings_share_kernels():
    cp = builtin_coupling("heisenberg-scale2")
    copy = CouplingSpec(name=cp.name, group=cp.group,
                        gamma_lattice=cp.gamma_lattice,
                        lambda_lattice=cp.lambda_lattice, twist=cp.twist)
    assert copy is not cp and copy == cp
    assert coupling_kernels(copy) is coupling_kernels(cp)
    assert builtin_coupling("heisenberg-scale2") is cp
