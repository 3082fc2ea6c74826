"""Inverse unitors and associators pinned matrix for matrix by sha256 digests.

For each kernel P with adjoints R and L, the case digests the inverse of
the left and right unitor on P, R and L, and the inverse of the
associator on (P,R,P), (R,P,R), (P,L,P), (L,P,L), (L,P,R) and (R,P,L).
The cases are the builtin kernels over F101 and Q, and seeded random
kernels with source D or Z over F2 and F101.  Random kernels over Q are
left out: their associators take minutes over Fractions.

The inverses are inverse_map of the forward maps, which tests/helpers.py
builds in the kernel's workspace as the engine once did.
"""

from __future__ import annotations

import hashlib
import random

from spherica.complexes import ChainMap
from spherica.kernels import kernel_ops
from spherica.linalg import Field
from spherica.session import _elaborate, builtin_example, builtin_names
from spherica.spherical import random_kernel

from helpers import RANDOM_SHAPES, assoc, inverse_map, lunit, runit

F2 = Field.prime(2)
F101 = Field.prime(101)
Q = Field.rationals()

TRIPLES = ("PRP", "RPR", "PLP", "LPL", "LPR", "RPL")


def _inverse(ops, forward, *args) -> ChainMap:
    return inverse_map(forward(ops, *args))


def _update(h, label: str, mats) -> None:
    mats = list(mats)
    h.update(f"{label}[{len(mats)}]".encode())
    for m in mats:
        h.update(f"{m.rows}x{m.cols}:".encode())
        h.update(",".join(str(x) for row in m.entries() for x in row).encode())
        h.update(b";")


def _update_map(h, label: str, f: ChainMap) -> None:
    degrees = sorted(f.components)
    _update(h, f"{label}{degrees}", [f.components[n] for n in degrees])


def _digest(kernel) -> str:
    h = hashlib.sha256()
    ops = kernel_ops(kernel)
    cx = {"P": kernel.complex,
          "R": ops.right_adjoint().kernel.complex,
          "L": ops.left_adjoint().kernel.complex}
    for name, x in cx.items():
        _update_map(h, f"lunit^-1({name})", _inverse(ops, lunit, x))
        _update_map(h, f"runit^-1({name})", _inverse(ops, runit, x))
    for triple in TRIPLES:
        _update_map(h, f"assoc^-1({triple})",
                    _inverse(ops, assoc, *(cx[c] for c in triple)))
    return h.hexdigest()


def _cases():
    for field, tag in ((F101, "F101"), (Q, "Q")):
        for name in builtin_names():
            _, kernels = _elaborate(builtin_example(name), field)
            for kname, k in kernels.items():
                yield f"{tag}:builtin:{name}:{kname}", k
    for field, tag in ((F2, "F2"), (F101, "F101")):
        for shape, (src, tgt) in RANDOM_SHAPES.items():
            a, b = src(field), tgt(field)
            for seed in (0, 5, 7):
                yield f"{tag}:random:{shape}:{seed}", random_kernel(a, b, random.Random(seed))


DIGESTS: dict[str, str] = {
    'F101:builtin:dual_numbers:P': '8eacf2351ff1226f10552381d43e48150a8f25d863ee9c9dd2772bdeb3eba33f',
    'F101:builtin:identity:ID': 'ebd0d69385c7ff852ca34b2df695f32fc649378796dd7108962b5028b2070624',
    'F101:builtin:kxk:P': 'f9e747c74705750bc8bf4f35953f5487fdf9eeeadaad30bcf6355e2552543c83',
    'F101:builtin:morita_2x2:P': '31bb4c17dea6a32d97cc7e8d635df97887141df62646a3e721a6d01e4992537e',
    'F101:builtin:x_cubed:P': 'c62909a2e3f62f06c9b774428672c035b19740451c66e5595ddc6565b0b9573d',
    'F101:builtin:zigzag_a2:P': 'b70a10f4b998f63b09932a22180967e49b893e286fc2d3baa9c797005e4a7b86',
    'F101:builtin:zigzag_braid:P1': 'b70a10f4b998f63b09932a22180967e49b893e286fc2d3baa9c797005e4a7b86',
    'F101:builtin:zigzag_braid:P2': '98c1aececce28f356dd6675a67493978978f6ba245dfd63d4318a08b58b97f23',
    'Q:builtin:dual_numbers:P': '8eacf2351ff1226f10552381d43e48150a8f25d863ee9c9dd2772bdeb3eba33f',
    'Q:builtin:identity:ID': 'ebd0d69385c7ff852ca34b2df695f32fc649378796dd7108962b5028b2070624',
    'Q:builtin:kxk:P': 'f9e747c74705750bc8bf4f35953f5487fdf9eeeadaad30bcf6355e2552543c83',
    'Q:builtin:morita_2x2:P': '31bb4c17dea6a32d97cc7e8d635df97887141df62646a3e721a6d01e4992537e',
    'Q:builtin:x_cubed:P': 'c62909a2e3f62f06c9b774428672c035b19740451c66e5595ddc6565b0b9573d',
    'Q:builtin:zigzag_a2:P': 'b70a10f4b998f63b09932a22180967e49b893e286fc2d3baa9c797005e4a7b86',
    'Q:builtin:zigzag_braid:P1': 'b70a10f4b998f63b09932a22180967e49b893e286fc2d3baa9c797005e4a7b86',
    'Q:builtin:zigzag_braid:P2': '98c1aececce28f356dd6675a67493978978f6ba245dfd63d4318a08b58b97f23',
    'F2:random:D-X3:0': 'ebe41ef79f4b8e31fbf438056f9c4f04932ffed2d2958cb2b4e1397d13fae0f8',
    'F2:random:D-X3:5': 'ebe41ef79f4b8e31fbf438056f9c4f04932ffed2d2958cb2b4e1397d13fae0f8',
    'F2:random:D-X3:7': 'b614d4650ed804056e6fe08b14a6826ed34b1022e1fa30c9b46b9cb19013d883',
    'F2:random:D-D:0': '424f41290200a5e7624f0115b799607808b902804db21ac2929477a1838728cc',
    'F2:random:D-D:5': '424f41290200a5e7624f0115b799607808b902804db21ac2929477a1838728cc',
    'F2:random:D-D:7': '2762c20988dcb1dc400f5123b42ed6fd991e5c3f679157a6059dea8aec8e0a1b',
    'F2:random:Z-Z:0': 'af1c4b2e4a5830e79352538cafec10241a3be8ff2330ea4402f12e71e4a0cd25',
    'F2:random:Z-Z:5': '313c0f32be3c8f0c9846295319f1d31ac22b8ac1e24863b066fcaf822ab3edf4',
    'F2:random:Z-Z:7': '9e55b471e9e8c9c338a7d29ffab332ff886f5c645e06dea50a4f16aa784c579c',
    'F101:random:D-X3:0': 'ebe41ef79f4b8e31fbf438056f9c4f04932ffed2d2958cb2b4e1397d13fae0f8',
    'F101:random:D-X3:5': 'ebe41ef79f4b8e31fbf438056f9c4f04932ffed2d2958cb2b4e1397d13fae0f8',
    'F101:random:D-X3:7': 'b614d4650ed804056e6fe08b14a6826ed34b1022e1fa30c9b46b9cb19013d883',
    'F101:random:D-D:0': '424f41290200a5e7624f0115b799607808b902804db21ac2929477a1838728cc',
    'F101:random:D-D:5': '424f41290200a5e7624f0115b799607808b902804db21ac2929477a1838728cc',
    'F101:random:D-D:7': '2762c20988dcb1dc400f5123b42ed6fd991e5c3f679157a6059dea8aec8e0a1b',
    'F101:random:Z-Z:0': 'af1c4b2e4a5830e79352538cafec10241a3be8ff2330ea4402f12e71e4a0cd25',
    'F101:random:Z-Z:5': '313c0f32be3c8f0c9846295319f1d31ac22b8ac1e24863b066fcaf822ab3edf4',
    'F101:random:Z-Z:7': '9e55b471e9e8c9c338a7d29ffab332ff886f5c645e06dea50a4f16aa784c579c',
}


def test_inverses_match_recorded_digests():
    got = {cid: _digest(k) for cid, k in _cases()}
    assert set(got) == set(DIGESTS)
    assert {cid: d for cid, d in got.items() if d != DIGESTS[cid]} == {}


if __name__ == "__main__":
    for cid, k in _cases():
        print(f"    {cid!r}: {_digest(k)!r},")
