"""Left-side constructions pinned matrix for matrix by sha256 digests.

Each case digests, for every term of a kernel, the left dual (both action
lists, hom matrices, generators, cogenerators) and the phi of the left
splitting; kernel-level cases add the left adjoint's differentials and
the components of unit_left and counit_left.  The cases are the builtin
kernels, and seeded random kernels with source D or Z over F2 and F101;
over Q only the bimodule-level parts are digested.
"""

from __future__ import annotations

import hashlib
import random

from spherica import bimodules
from spherica.bimodules import left_dual
from spherica.kernels import kernel_ops
from spherica.linalg import Field
from spherica.session import _elaborate, builtin_example, builtin_names
from spherica.spherical import random_kernel

from helpers import RANDOM_SHAPES, columns, counit_left, hom_matrices, splitting_phi

F2 = Field.prime(2)
F101 = Field.prime(101)
Q = Field.rationals()


def _left_phi(m):
    """phi of the splitting of m as a left module: of the right splitting
    of its flip."""
    view = bimodules.flip(m)
    return splitting_phi(view, bimodules._splitting(view))


def _update(h, label: str, mats) -> None:
    mats = list(mats)
    h.update(f"{label}[{len(mats)}]".encode())
    for m in mats:
        h.update(f"{m.rows}x{m.cols}:".encode())
        h.update(",".join(str(x) for row in m.entries() for x in row).encode())
        h.update(b";")


def _digest(kernel, kernel_level: bool) -> str:
    h = hashlib.sha256()
    cx = kernel.complex
    for n in cx.degrees():
        term = cx.term(n)
        dd = left_dual(term)
        _update(h, f"dual{n}.left", dd.bimodule.left_action)
        _update(h, f"dual{n}.right", dd.bimodule.right_action)
        _update(h, f"dual{n}.hom", hom_matrices(dd))
        _update(h, f"dual{n}.gens", columns(dd.gens))
        _update(h, f"dual{n}.cogens", columns(dd.cogens))
        _update(h, f"phi{n}", [_left_phi(term)])
    if kernel_level:
        ops = kernel_ops(kernel)
        adj = ops.left_adjoint().kernel.complex
        _update(h, "ladj.d", [adj.diffs[n] for n in sorted(adj.diffs)])
        for name, f in (("unit_left", ops.unit_left()), ("counit_left", counit_left(kernel))):
            comps = f.components
            _update(h, name, [comps[n] for n in sorted(comps)])
    return h.hexdigest()


def _builtin_kernels(field):
    for name in builtin_names():
        _, kernels = _elaborate(builtin_example(name), field)
        for kname, k in kernels.items():
            yield f"{name}:{kname}", k


def _random_kernels(field, seeds):
    for shape, (src, tgt) in RANDOM_SHAPES.items():
        a, b = src(field), tgt(field)
        for seed in seeds:
            yield f"{shape}:{seed}", random_kernel(a, b, random.Random(seed))


def _cases():
    for field, tag in ((F101, "F101"), (Q, "Q")):
        for cid, k in _builtin_kernels(field):
            yield f"{tag}:builtin:{cid}", k, field is not Q
    for field, tag in ((F2, "F2"), (F101, "F101")):
        for cid, k in _random_kernels(field, (0, 1, 5, 7)):
            yield f"{tag}:random:{cid}", k, True
    for cid, k in _random_kernels(Q, (0, 7)):
        yield f"Q:random:{cid}", k, False


DIGESTS: dict[str, str] = {
    'F101:builtin:dual_numbers:P': '14f8b3b7192eae4d28de5294484e08078b06cf9bfee4ca6e7d836ab55fbeadba',
    'F101:builtin:identity:ID': '0f054e8f9888748914a9e04205285cef75bab2bfa969cae8d0fd953cddf9c2c4',
    'F101:builtin:kxk:P': 'b4de205530dcecad9af628515a1ccb2b18ae8f87ec5a1b900090ecab94f93fa9',
    'F101:builtin:morita_2x2:P': 'ee52d4eaa49c5dac5466f3158d975337aed4500c6ee9fe33e35d952776041f1c',
    'F101:builtin:x_cubed:P': 'b11d26b98122e2c1ebcf1dd9a5f9c0201be1a1db4c7fb1074f0f60988ac624b6',
    'F101:builtin:zigzag_a2:P': 'c8856a31618a51384e1a8610e02875ee77da2bf5932e9e60af45bbd0d4c7448b',
    'F101:builtin:zigzag_braid:P1': 'c8856a31618a51384e1a8610e02875ee77da2bf5932e9e60af45bbd0d4c7448b',
    'F101:builtin:zigzag_braid:P2': '06132f349017aa7df26f6e1ad90c6de5bc3397213c0373ab1711b7cb02bb0a51',
    'Q:builtin:dual_numbers:P': '0b635bd880f7f0ebb3eb45729395e2594a2a2e2a70f04eb49af9d8423904c4b3',
    'Q:builtin:identity:ID': 'cd8e332e68f47b8c116eb333f2fe2b062070da993d4053125110fb297339af34',
    'Q:builtin:kxk:P': 'b48a71cc55664fe8f4b640d526442157edce48172007d1e0dee639a2a9fa83b5',
    'Q:builtin:morita_2x2:P': '02a185aef8120757eae018ca6e32f38c8b2fe63e395309d4fbf1ea87b3b43233',
    'Q:builtin:x_cubed:P': '63665f9ee1a0fe9984f4e8ddd758382fbe6518181c32fef23bca21aa0ef31969',
    'Q:builtin:zigzag_a2:P': 'b0d86f0d7dc7fd8ea2fad5632c03720bcbe183b7a4208395725326a3910b92ac',
    'Q:builtin:zigzag_braid:P1': 'b0d86f0d7dc7fd8ea2fad5632c03720bcbe183b7a4208395725326a3910b92ac',
    'Q:builtin:zigzag_braid:P2': 'db79bcb566bee8fab445f780a737d76130e5a399ae013381aa5cc82bd00bc838',
    'F2:random:D-X3:0': 'e4dff454fef1b2fdb3769cd3311bf72434a97dcecd9af203eef0df6eac14a64e',
    'F2:random:D-X3:1': '9bd5bc55b5fd2556bcf4e12c13c427df8e6baff91be368eaa2da39001f7cb88a',
    'F2:random:D-X3:5': '1e7da18f259b4253489f99cae129d082a36a6bca273697cea51989738f43ec33',
    'F2:random:D-X3:7': 'a76c8c5302cdd6d148106563dcbde1612029be489825e2d0f89223a2f18fd16d',
    'F2:random:D-D:0': '32c11b857946cfa52a1fdd5953fe93333d53627c53051ff3ba9c7c44a99decf1',
    'F2:random:D-D:1': '0e169ef23c629ef358bf6056281a1f9bc036e3edd564ea7088d3472aa60bbe37',
    'F2:random:D-D:5': '3ca4fe4afd4603036b0bfec86ab345c69c5ca84792992813013753149881be9d',
    'F2:random:D-D:7': 'ff605ba8aea0ae9b0edbc083f09f13cec842d75263e697b4e2e6d520db070510',
    'F2:random:Z-Z:0': 'dc68e5961fb314e948e1bf11ae0446443219ae84216fa8aa531f4f13a0d2f582',
    'F2:random:Z-Z:1': '917cba00fd4d6c41414e00057d113d7cf40d024619407c3facb932a878d2095b',
    'F2:random:Z-Z:5': 'c40602b1a0795e139c1e3d80d7f4546b1d0d9cd3b558555f22725b5a6d9c9ba0',
    'F2:random:Z-Z:7': '5393c8dc62b4cd743104419259739b82ef1b6a18f0f6d9646da957a1895e1292',
    'F101:random:D-X3:0': 'abd159c643610fb9f4a8371f6192a172de32e8f0297b453a3caaa479bb40c9a9',
    'F101:random:D-X3:1': '9bd5bc55b5fd2556bcf4e12c13c427df8e6baff91be368eaa2da39001f7cb88a',
    'F101:random:D-X3:5': 'c31a7b79f0e4a46a57ab17e337a79024e24b7a9e2fe7c74db7d978afdc4c201b',
    'F101:random:D-X3:7': 'e71bf339cd8e0925224dfb13e285234090bcb02ce484b34dec99dfb7302f7770',
    'F101:random:D-D:0': '87298de42ab9f0a76537a6377a5361dc7d7c198d2873556dde48471a484a89cb',
    'F101:random:D-D:1': '0e169ef23c629ef358bf6056281a1f9bc036e3edd564ea7088d3472aa60bbe37',
    'F101:random:D-D:5': 'c190147b2b4f967b3631b55824d6e20f5ab16e7add6413a2fce3b5e450f52c0c',
    'F101:random:D-D:7': '4badab596618aa2903c2547977f2ebf9caa07abf2f206db5cc4020e60a34a175',
    'F101:random:Z-Z:0': '93610dbde0110eed48514a8a2878b28e3e58a155d3e13dc0312c1b3c7725ea48',
    'F101:random:Z-Z:1': '917cba00fd4d6c41414e00057d113d7cf40d024619407c3facb932a878d2095b',
    'F101:random:Z-Z:5': 'f8788bd69f692c3d5a97651ff56422c95eefa0666377827e6841f43c31f53c56',
    'F101:random:Z-Z:7': 'bb61fe20d3a039ef1e9ec9b09082e5c9bcbf0cfff4506247ed169613e721b336',
    'Q:random:D-X3:0': '4b2fadee4adb40e27790c9bf63363647c212779a25afa905bfbced3410b74d06',
    'Q:random:D-X3:7': '5868d1f1cbd2bc9fe17917ff8f90962757996247abf1f22d3ad1c74995c914db',
    'Q:random:D-D:0': 'f231db2a81a0e33a88dbb48fc298702150e2d03d9accf7b0322fc3037c0e311d',
    'Q:random:D-D:7': '5ab2c8ed049fcde9bd37db088584f3d685e3e77defad4ef1f5fa6ff257abc2f0',
    'Q:random:Z-Z:0': 'aa0101beb46b3ae3f13c11e67c65831e1bdd1057de9873c48e5bef50c9c3398c',
    'Q:random:Z-Z:7': 'a50a0740225ad61aa728daffb824f301f3f5544c0a2c818390df508ebf567660',
}


def test_left_constructions_match_recorded_digests():
    got = {cid: _digest(k, level) for cid, k, level in _cases()}
    assert set(got) == set(DIGESTS)
    assert {cid: d for cid, d in got.items() if d != DIGESTS[cid]} == {}


if __name__ == "__main__":
    for cid, k, level in _cases():
        print(f"    {cid!r}: {_digest(k, level)!r},")
