"""Golden digests of the Smith forms that CLI output reads.

``deligne dd`` reports class coordinates read off U, and ``deligne
trivialize`` a particular h solved through U, so the transforms of the
nerve coboundaries, and not only their diagonals, fix printed output.
``grpcoh`` reads the diagonal of its periodic coboundaries.  The sha256 of
each (d, U, V) must equal the digest committed below; on a mismatch the
failure prints the new digest.
"""

import hashlib
import json

import pytest

from gerbecalc.deligne import _snf_of_coboundary
from gerbecalc.grpcoh import _coboundary
from gerbecalc.intlinalg import smith_normal_form
from gerbecalc.nerve import icosahedron, simplex_nerve, sphere_nerve

from test_deligne import suspension_nerve

NERVES = {
    **{f"simplex{n}": (lambda n=n: simplex_nerve(n)) for n in range(3, 8)},
    "sphere": sphere_nerve,
    "suspension": suspension_nerve,
    "icosahedron": lambda: icosahedron().nerve(),
}

# the group list of the benchmark's ``exact`` workload: (orders, degree)
GROUPS = (
    [((m,), n) for m in range(2, 10) for n in (1, 2, 3)]
    + [(orders, n) for orders in ((2, 4), (3, 3)) for n in (1, 2, 3)]
    + [((2, 2, 2), n) for n in (1, 2)]
)

NERVE_GOLDEN = {
    "simplex3-0":
        "22c83de2b36fa06dadc2616e4870aaf320a752b9000a3cbd8ae2873bc42f41a0",
    "simplex3-1":
        "e8631af64e594e9b4deb55524cea71eaa0e5da82134469b4f97c17a3cb9f7ef2",
    "simplex4-0":
        "d96f603355cb5e1ef371fd2f0e4cff123b22bf3bbd7a931af78cb2ce2c80dd07",
    "simplex4-1":
        "c6e5edd49415bb483ffcf75a84336ca4a6f07e767d41a7b91af45878adddc075",
    "simplex4-2":
        "be504f8507ce8987b36931db9cff8b58e44d82b2668c90f4af4c461b7b4802f9",
    "simplex5-0":
        "6d67bb02b1a96c0e94914e4645d6dc6cc15c54346202fc427a4eada67f714fec",
    "simplex5-1":
        "178df5121b7b34d4e7930d8a1435878b9e2f5fb6c9810ad2cb918e57fdfb8f98",
    "simplex5-2":
        "38f1714203ac64e64c89d52a75a9020da1dc4f17165595ade74bad93814e6fb7",
    "simplex5-3":
        "c062b9a1a957c1b34c3dec807110a2b0c4cd25d9301fb041484e6f580fc1c92b",
    "simplex6-0":
        "cf65f916f6e3c4b2ffdf23703790fc7fe2a072cc93dde7c9656ff75ddacf0850",
    "simplex6-1":
        "d3ac9dd1066fcc7667b827e8a0aed272e878e4f565283650e8f632fa53663376",
    "simplex6-2":
        "4e5df85568e01c817019a159caf63071a4ea97d47dd290d711681fc445fc3fb0",
    "simplex6-3":
        "0664bc2314f59e3f92bb6bf5117328770b9f64c64e2c18bdc48f7fa704211f14",
    "simplex6-4":
        "06f5f5c540890ac84fc493858cb747daddab51a84bd587298acc0bd6e885c333",
    "simplex7-0":
        "6e31078e56169c7a8571e5138ae8e521101510d1aa6e3a5f5602c3cc16c5daff",
    "simplex7-1":
        "f3399724f8acb6451b3fdefe7c782cac83d67d7711b828e6d7509c5ae4ef69fe",
    "simplex7-2":
        "7f5c59783d3c2527ef438ad40749be8af6a2ee71ea85375bf89f96549a7a811b",
    "simplex7-3":
        "e6375b9fd9692b78712e3a5231db2089e905c1553041063ad8f992b6548c0c7a",
    "simplex7-4":
        "4893cc236f61702d226c514c1c8cd86bbb1a394d27870f1c414980fcf5cc5ca9",
    "simplex7-5":
        "f4152fd076956136e8404e298e6799fd683ee96e9d451b8af5ead635ed39e138",
    "sphere-0":
        "d96f603355cb5e1ef371fd2f0e4cff123b22bf3bbd7a931af78cb2ce2c80dd07",
    "sphere-1":
        "c6e5edd49415bb483ffcf75a84336ca4a6f07e767d41a7b91af45878adddc075",
    "suspension-0":
        "bba7108b2d0341e69902ccce9b804edceef98a199511fb0c4e4b1a2a20e182d6",
    "suspension-1":
        "5d4732d7041a0e1bdce403196caaa3ea0f2560037a64d7268e1c7c81b02a0178",
    "suspension-2":
        "4b0f47ef56757ea845691ff48231151dbea1755adf77c4b8da4ab38c2bd7f4fe",
    "icosahedron-0":
        "7acf7b086924dc64c79e12dcb316f2cc1bb674731e9aa60f83e5b501079c0ec9",
    "icosahedron-1":
        "62acc4ba405ad4ef09e25acad89511d30ed7101f2a2a442b0398cd838ccd09df",
    "icosahedron-2":
        "d107717f6992d1dca0879a8bc9027a9ec0b830af067f97f002eead97b787324d",
    "icosahedron-3":
        "f110cbc9614fe13eb626398f985657b2e6e654697b803ca0d8ca17289f69ae07",
    "icosahedron-4":
        "0c168fe6f1424a9e1dc5e8e5dc412e794c711fef8ae277f2d532ef55e698ff27",
}

GROUP_GOLDEN = {
    "2-1":
        "57961e7a8591b070009b101faac784ab0fc0f2ca7d550c327a1d25c29fae2ef2",
    "2-2":
        "9f8e310b10d03c154316fb9de79be5a783d8368fc46882121e7967d15a1add92",
    "2-3":
        "57961e7a8591b070009b101faac784ab0fc0f2ca7d550c327a1d25c29fae2ef2",
    "3-1":
        "46f5e4c46976ee9a0e00b5c3c2ad616094ab1119b72e1bbfcff31d8120c27f10",
    "3-2":
        "9f8e310b10d03c154316fb9de79be5a783d8368fc46882121e7967d15a1add92",
    "3-3":
        "46f5e4c46976ee9a0e00b5c3c2ad616094ab1119b72e1bbfcff31d8120c27f10",
    "4-1":
        "653942c8b751688efb3484d47f37ef6c583bd862835d0981ca89b6805b058c49",
    "4-2":
        "9f8e310b10d03c154316fb9de79be5a783d8368fc46882121e7967d15a1add92",
    "4-3":
        "653942c8b751688efb3484d47f37ef6c583bd862835d0981ca89b6805b058c49",
    "5-1":
        "6c012d94b4433ea21e14f331f2bccc094bd9400aab5ba9391e7fca3861967c45",
    "5-2":
        "9f8e310b10d03c154316fb9de79be5a783d8368fc46882121e7967d15a1add92",
    "5-3":
        "6c012d94b4433ea21e14f331f2bccc094bd9400aab5ba9391e7fca3861967c45",
    "6-1":
        "8475c52eb2afb70135d0227d7fe15deab3a6b5388e22d2d4444f9635370aa866",
    "6-2":
        "9f8e310b10d03c154316fb9de79be5a783d8368fc46882121e7967d15a1add92",
    "6-3":
        "8475c52eb2afb70135d0227d7fe15deab3a6b5388e22d2d4444f9635370aa866",
    "7-1":
        "dbf531ecb328a5203d9c64a31067e25a8565a09d16a94754ae1b9d3dec73588a",
    "7-2":
        "9f8e310b10d03c154316fb9de79be5a783d8368fc46882121e7967d15a1add92",
    "7-3":
        "dbf531ecb328a5203d9c64a31067e25a8565a09d16a94754ae1b9d3dec73588a",
    "8-1":
        "b87a84d2bd0a48e2f5f140a7b859cb5e6da416088cb1a40c59d9fd55ac85194c",
    "8-2":
        "9f8e310b10d03c154316fb9de79be5a783d8368fc46882121e7967d15a1add92",
    "8-3":
        "b87a84d2bd0a48e2f5f140a7b859cb5e6da416088cb1a40c59d9fd55ac85194c",
    "9-1":
        "ca9ccd997dc533a52f6553e8f6a53af51577d0aedd2500603cbd4122261bc92c",
    "9-2":
        "9f8e310b10d03c154316fb9de79be5a783d8368fc46882121e7967d15a1add92",
    "9-3":
        "ca9ccd997dc533a52f6553e8f6a53af51577d0aedd2500603cbd4122261bc92c",
    "2,4-1":
        "f2a083473c99bb5da2c00e2f71ab28691482a79b6e1cffe2d232e0d69e8933ce",
    "2,4-2":
        "85d33dbb63233b065310f9eb83756ee4d5fbcd6119cfb467e17bd8818abdf1a5",
    "2,4-3":
        "1607a023bfaade2de96128bca843ecaf06d0c05c4a0b2ccf5124b64904d45d55",
    "3,3-1":
        "89998e31f740f89e3f836e76e5dc588f1eb8d1d5f659f5490fd6f0377bb85499",
    "3,3-2":
        "a0e68942a8add104585d7fa99c04dbc89de80162f277e69195c22d092b0bc900",
    "3,3-3":
        "8af4e423a2e27954e70738c81e5c80afda45c41525a832d476e83ef9ee800167",
    "2,2,2-1":
        "bffd609b46dc8700aac624f912aa5cf34a18d313c7467e77003f11ebe3432769",
    "2,2,2-2":
        "cf0b69475170fdc4467772225c668ee9efba0f5cf699c23fd2e2faa237b885af",
}


def snf_digest(snf):
    return hashlib.sha256(json.dumps(snf).encode()).hexdigest()


@pytest.fixture(scope="module")
def nerves():
    return {name: build() for name, build in NERVES.items()}


@pytest.mark.parametrize("key", sorted(NERVE_GOLDEN))
def test_nerve_coboundary_smith_form_matches_its_golden_digest(key, nerves):
    name, degree = key.rsplit("-", 1)
    snf = _snf_of_coboundary(nerves[name], int(degree))[3]
    digest = snf_digest(snf)
    assert digest == NERVE_GOLDEN[key], f"new digest for {key!r}: {digest}"


@pytest.mark.parametrize("key", sorted(GROUP_GOLDEN))
def test_group_coboundary_smith_form_matches_its_golden_digest(key):
    orders, degree = key.rsplit("-", 1)
    mat = _coboundary(tuple(map(int, orders.split(","))), int(degree))
    digest = snf_digest(smith_normal_form(mat))
    assert digest == GROUP_GOLDEN[key], f"new digest for {key!r}: {digest}"


def test_golden_keys_cover_every_pinned_coboundary(nerves):
    keys = {
        f"{name}-{p}"
        for name, nerve in nerves.items()
        for p in range(nerve.dimension + 1)
        if _snf_of_coboundary(nerve, p)[3] is not None
    }
    assert set(NERVE_GOLDEN) == keys
    assert set(GROUP_GOLDEN) == {
        f"{','.join(map(str, orders))}-{n}" for orders, n in GROUPS}
