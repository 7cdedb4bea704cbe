"""The same digits from every interpreter.

``sum`` is compensated from Python 3.12 on, so a float total taken with it
can differ in its last bit between interpreters.  The snippet below prints
float results that the library folds left to right (the refined sphere
mesh, the Stokes bulk sum) and exact ones (D of a cochain, a Dixmier-Douady
class); each ``python3.12`` and ``python3.13`` found on ``PATH`` that starts
must print what this interpreter prints.  The snippet needs neither pytest
nor numpy.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SNIPPET = r"""
import cmath, hashlib, math, random
from fractions import Fraction

from gerbecalc import deligne, holonomy
from gerbecalc.intlinalg import smith_normal_form
from gerbecalc.nerve import (coned_ball, icosahedron, icosahedron_mesh, make_nerve,
                             refine_sphere_mesh, simplex_nerve)

coords, tris = icosahedron_mesh()
for _ in range(5):
    coords, tris = refine_sphere_mesh(coords, tris)
print("mesh", len(coords), hashlib.sha256(repr(sorted(coords.items())).encode()).hexdigest())

# the Stokes bulk sum of a field of mixed scales, read back through a
# stand-in for cmath whose exp returns its argument and whose pi is 1/2,
# so that the bulk phase is exactly 1j times the sum
ball = coned_ball(icosahedron())
rng = random.Random(24)
H = {tet: rng.uniform(-1, 1) * 3.0 ** rng.randrange(-9, 9) for tet in ball.tet_keys}
c = deligne.zero_cochain(ball.nerve(), 2, 2, complex=ball)
asg = holonomy.random_assignment(ball.boundary_surface(), rng)


class Turns:
    pi = 0.5

    @staticmethod
    def exp(z):
        return z


holonomy.cmath = Turns
holonomy.EXACTNESS_TOL = math.inf
print("stokes", repr(holonomy.stokes_check(ball, c, H, asg)[1].imag))
holonomy.cmath = cmath

c = deligne.random_cochain(simplex_nerve(6), 2, 2, random.Random(7))
dc = deligne.deligne_differential(c)
print("D", str(dc.components))
print("DD", str(deligne.deligne_differential(dc).components))

# the order-2 class of the suspended projective plane
rp2 = [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
       (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6)]
susp = make_nerve(range(1, 9), [(7,) + t for t in rp2] + [(8,) + t for t in rp2])
triples, quads = susp.faces_of_size(3), susp.faces_of_size(4)
col = {t: i for i, t in enumerate(triples)}
mat = [[0] * len(triples) for _ in quads]
for r, J in enumerate(quads):
    for j in range(4):
        mat[r][col[J[:j] + J[j + 1:]]] += (-1) ** j
d, _, v = smith_normal_form(mat)
i = next(i for i, x in enumerate(d) if x not in (0, 1))
g = {t: Fraction(row[i], d[i]) % 1 for t, row in zip(triples, v)}
cls = deligne.dd_class(susp, g)
print("dd_class", cls.coords, cls.moduli)
"""


def _run(exe):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([exe, "-c", SNIPPET], env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def here():
    out = _run(sys.executable)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("name", ("python3.12", "python3.13"))
def test_other_interpreters_print_the_same_digits(here, name):
    exe = shutil.which(name)
    if exe is None or subprocess.run([exe, "-c", "pass"], capture_output=True).returncode:
        pytest.skip(f"no {name} that starts")
    out = _run(exe)
    assert out.returncode == 0, out.stderr
    assert out.stdout == here
