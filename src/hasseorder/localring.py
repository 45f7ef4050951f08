"""Truncated complete discrete valuation rings and their unramified extensions.

Every ring here is a truncation of

    R_{e,n} = (Z/p^e)[theta]/(G)[t]/(t^n),

where G is the monic lift, with coefficients in {0, ..., p-1}, of the
deterministic irreducible defining polynomial of the residue field
F_{p^m}.  Two families are supported, both at a fixed global precision N:

* mixed characteristic: (Z/p^N)[theta]/(G), i.e. (e, n) = (N, 1); the
  uniformizer is p;
* equal characteristic: k[[t]]/(t^N) for k = F_p[theta]/(G), i.e.
  (e, n) = (1, N); the uniformizer is t.

The residue field F_{p^m} itself is the case (e, n) = (1, 1)
(`residue_field`): the mixed family at N = 1.

An element is the flat tuple of its m*n coefficients in [0, p^e): the
coefficient of t^i theta^j sits at index i*m + j.  One kernel serves both
families: sums act on the tuples directly, and the Galois and base-ring
maps are precomputed Z/p^e-linear maps applied to all t-blocks at once.  A
product, in every ring, is one integer multiply of Kronecker packings,
finished by one reduction by G and p^e (`finish`, on the packing for n > 1),
and a p-th power on coefficient tuples (`_pth_power`: the Witt ghost maps,
and the Frobenius of `ff`'s irreducibility test) is one integer power of a
packing wherever the unreduced power packs into a few thousand bits.  For
n = 1, m > 1 the finish of every kernel a ring keeps is straight-line code,
compiled once per shape of the reduction (`_compile_finish`) and shared by
the rings of that shape; the one-off kernels of `_pth_power`, one per
candidate polynomial of `ff`'s test and per Witt lift, keep a loop over the
reduction rows, since compiling them costs more set-up than they gain.  A sum
of products (`dot`, `matmul`) is packed and reduced once: the integer
products are added in slots wide enough for the number of terms, and one
`finish` reduces the sum.  The skew product of the order A
(`algebra.skew_mul`) runs on the same packings (`_skew_kernel`): sigma^k
acts on a packing through the packed columns sigma^k(theta^l), the wrap
x^d = pi_K is folded into the packed sum (p times it for n = 1, a shift by
one t-slot for n > 1), and each output coefficient is finished once.

Each element is packed at most once per kernel: it keeps its packing
together with the pack function of the kernel that made it
(`RingElem._packing`), and every packed consumer (the product, `dot`,
`matmul`, the skew products of A and of A (x)_S T) reads it from there.
Kernels of different slot widths have different pack functions, so an
element passed from one to another is packed again for the new one.

Every ring carries the absolute Frobenius lift phi, fixing t: the image of
theta is the Hensel/Newton lift of theta^p (exact when e = 1, where phi acts
coefficientwise by the p-power Frobenius of the residue field).  An
unramified extension T of relative degree d over a base ring S with residue
field F_q, q = p^f, carries the distinguished generator sigma = phi^f of
Gal(T/S).  Contexts are immutable after construction and all element
operations are pure.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from operator import itemgetter, mul as _mul

from . import ff as ffmod
from . import linalg
from .errors import (CtxMismatchError, InternalError, NotInvertibleError,
                     ParameterError, PrecisionError)
from .linalg import _val

MIXED = "mixed"
EQUAL = "equal"

# (itemsize, typecode) of the unsigned array types, smallest first; packing
# through them needs a little-endian host
_ARRAY_CODES = (sorted({array(c).itemsize: c for c in "BHILQ"}.items())
                if sys.byteorder == "little" else [])


def power(x, e: int, one):
    """x**e by square-and-multiply, starting from the lowest set bit of e
    (`one` for e = 0); e < 0 inverts x."""
    if e < 0:
        x, e = x.inv(), -e
    r = None
    while e:
        if e & 1:
            r = x if r is None else r * x
        e >>= 1
        if e:
            x = x * x
    return one if r is None else r


def _red_table(poly, m, mod, count=None):
    """theta^(m+l) reduced mod (G, p^e) for 0 <= l < count, as sparse rows
    [(j, c_j)] with theta^(m+l) = sum_j c_j theta^j.  The default count,
    m - 1, covers the product of two elements."""
    top = [(-c) % mod for c in poly[:m]]  # theta^m
    cur, rows = top, []
    for _ in range(m - 1 if count is None else count):
        rows.append([(j, c) for j, c in enumerate(cur) if c])
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            cur = [(c + lead * t) % mod for c, t in zip(cur, top)]
    return rows


# _ROUND[w]: the bytes per slot of values needing w bytes, when an array
# type holds them
_ROUND = tuple(next(size for size, _ in _ARRAY_CODES if size >= w)
               for w in range(_ARRAY_CODES[-1][0] + 1 if _ARRAY_CODES else 0))


def _slot_bytes(bound):
    """Bytes per slot of values up to `bound`: an array itemsize if one is
    wide enough, else the bytes the values need."""
    return _bits_slot_bytes(bound.bit_length())


def _bits_slot_bytes(bits):
    """`_slot_bytes` of values of `bits` bits."""
    width = (bits + 7) // 8
    return _ROUND[width] if width < len(_ROUND) else width


def _slots(bound):
    """Packing of int sequences into one integer, in slots wide enough for
    values up to `bound`: returns (bits per slot, pack, unpack), where
    unpack(x, count) is the list of the count slots of x."""
    width = _slot_bytes(bound)
    code = next((c for size, c in _ARRAY_CODES if size == width), None)
    frm = int.from_bytes
    if width == 1:  # a byte per slot: bytes are faster than an array
        return 8, (lambda seq: frm(bytes(seq), "little")), (
            lambda x, count: list(x.to_bytes(count, "little")))
    if code:
        def pack(seq):
            return frm(array(code, seq).tobytes(), "little")

        def unpack(x, count):
            return array(code, x.to_bytes(count * width, "little")).tolist()
    else:
        def pack(seq):
            return frm(b"".join([c.to_bytes(width, "little") for c in seq]), "little")

        def unpack(x, count):
            buf = x.to_bytes(count * width, "little")
            return [frm(buf[k:k + width], "little") for k in range(0, len(buf), width)]
    return 8 * width, pack, unpack


def _term_bound(m, n, mod):
    """Largest slot value that one product adds to a packed sum before it
    is finished: the product itself for n = 1, where `finish` unpacks
    before reducing by G, and the product grown by that reduction for
    n > 1, where `finish` reduces the packed t-polynomials."""
    prod = n * m * (mod - 1) ** 2
    return prod if n == 1 else prod * (1 + (m - 1) * (mod - 1))


def _red_pattern(red):
    """The shape of reduction rows [(j, r_lj)]: per row, the indices j."""
    return tuple(tuple(j for j, _ in row) for row in red)


def _finish_source(m, pattern):
    """The source of the straight-line n = 1 finish of one shape: m and, for
    each reduction row l (slot m + l), the indices j of its nonzero r_lj.

    make(unpack, mod, r..) binds the nonzero r_lj, row by row, and returns
    compiled_finish(c), which unpacks the m + len(pattern) slots o of c into
    locals and returns the tuple of (o_j + sum_l o_(m+l) r_lj) % mod.  The
    source names only these parameters and locals, and its one literal is
    the slot count."""
    width = m + len(pattern)
    coeffs, terms = [], [[f"o{j}"] for j in range(m)]
    for l, row in enumerate(pattern):
        for j in row:
            coeffs.append(f"r{l}_{j}")
            terms[j].append(f"o{m + l} * r{l}_{j}")
    slots = ", ".join(f"o{k}" for k in range(width))
    outs = ", ".join(f"({' + '.join(t)}) % mod" for t in terms)
    return (f"def make({', '.join(['unpack', 'mod', *coeffs])}):\n"
            f"    def compiled_finish(c):\n"
            f"        {slots} = unpack(c, {width})\n"
            f"        return ({outs})\n"
            f"    return compiled_finish\n")


@functools.lru_cache(maxsize=None)
def _compile_finish(m, pattern):
    """make(unpack, mod, r..) of `_finish_source(m, pattern)`, compiled once
    per shape: rings whose products have the same slot count and nonzero
    reduction pattern share one code object."""
    scope = {}
    exec(compile(_finish_source(m, pattern), "<localring compiled finish>", "exec"), scope)
    return scope["make"]


def _packed_sums(m, n, mod, red, bound, compiled=False):
    """(pack, finish) for sums of products in R_{e,n} whose slot values
    stay below `bound` (Kronecker substitution).

    pack(a) is one integer; a sum of products pack(a) * pack(b) is turned
    back into a coefficient tuple by one finish(c).  For n = 1 theta^j
    sits in slot j: finish unpacks the m + len(red) slots (2m-1 for the
    rows of a product) and reduces them by G and p^e, compiled into
    straight-line code (`_compile_finish`) if `compiled`, else by a loop
    over the rows.  A ring compiles the kernels it keeps (`_slot_kernel`);
    a one-off kernel, such as the p-th power of each candidate of `ff`'s
    irreducibility test, keeps the loop, whose set-up costs no compile.
    For n > 1 theta^j t^i sits in slot j*(2n-1) + i, so the t-product of
    two theta-degrees never spills into the next one: finish masks the
    degrees below m at t^n, adds each reduction term r * s (s a degree
    m + l, masked alike) into the degree where it lands, and unpacks once.
    For m = 1 it masks.
    """
    bits, pack, unpack = _slots(bound)
    if m == n == 1:  # one slot: the packing is the coefficient itself
        return itemgetter(0), lambda c: (c % mod,)
    if n == 1 and compiled:
        make = _compile_finish(m, _red_pattern(red))
        return pack, make(unpack, mod, *[r for row in red for _, r in row])
    if n == 1:
        width = m + len(red)
        red = [(m + l, row) for l, row in enumerate(red)]

        def finish(c):
            out = unpack(c, width)
            for l, row in red:
                v = out[l]
                if v:
                    for j, r in row:
                        out[j] += v * r
            return tuple([v % mod for v in out[:m]])
        return pack, finish
    if m == 1:  # one t-polynomial: truncate at t^n
        mask = (1 << bits * n) - 1
        return pack, lambda c: tuple([v % mod for v in unpack(c & mask, n)])
    wt = 2 * n - 1
    seg = bits * wt  # one theta-degree of the product
    mask = (1 << bits * n) - 1  # one t-polynomial, truncated at t^n
    low = sum(mask << (j * seg) for j in range(m))  # theta-degrees below m
    count = m * wt
    red = [(seg * (m + l), [(seg * j, r) for j, r in row])
           for l, row in enumerate(red)]
    # packing reads a + (0,): index m*n is the zero of the padding slots
    take = itemgetter(*[i * m + j if i < n else m * n
                        for j in range(m) for i in range(wt)])
    # slot j*wt + i of the unpacked result is the coefficient of t^i theta^j
    put = itemgetter(*[j * wt + i for i in range(n) for j in range(m)])

    def finish(c):
        x = c & low
        for shift, row in red:
            s = (c >> shift) & mask
            if s:
                for at, r in row:
                    x += r * s << at
        return tuple([v % mod for v in put(unpack(x, count))])
    return (lambda a: pack(take(a + (0,)))), finish


def _block_map(rows, k, n, mod):
    """The Z/p^e-linear map applying a matrix (its rows, each of length k) to
    each of the n t-blocks, of length k, of a coefficient vector.

    For n > 1 the blocks are packed theta-major, and the map is one sum of
    the k packed theta-segments times the k packed matrix columns."""
    if n == 1:
        return lambda v: tuple([sum(map(_mul, row, v)) % mod for row in rows])
    bits, pack, unpack = _slots(k * (mod - 1) ** 2)
    tbits = bits * n
    mask = (1 << tbits) - 1
    count = len(rows) * n
    zero = (0,) * count
    cols = [sum(c << (r * tbits) for r, c in enumerate(col)) for col in zip(*rows)]
    take = itemgetter(*[i * k + j for j in range(k) for i in range(n)])
    put = itemgetter(*[r * n + i for i in range(n) for r in range(len(rows))])

    def apply(v):
        if not any(v):
            return zero
        x = pack(take(v))
        acc = sum(map(_mul, [(x >> (j * tbits)) & mask for j in range(k)], cols))
        return put([c % mod for c in unpack(acc, count)])
    return apply


# The largest packed p-th power, in bits, taken as one integer power.  Its
# slots widen with p, and past about 4k bits (from p = 7 on) square-and-multiply
# through the kernel product is faster: on a 2-core Xeon under Python 3.11,
# every lift up to 3.5k bits was faster packed, and most from 4.7k bits on
# were slower, up to 50 times at p = 13, n = 32.
_PACKED_POWER_BITS = 4096


def _pth_slot_bytes(p, k, mod):
    """Bytes per slot of the packed p-th power of a polynomial with k > 1
    coefficients in [0, mod), or None when its packing, p(k-1)+1 slots,
    exceeds _PACKED_POWER_BITS.  Each coefficient of the unreduced power is
    at most k^(p-1) (mod - 1)^p.  The size is decided on an upper bound of
    that bound's bit length, (p-1) bitlen(k) + p bitlen(mod - 1), and the
    bound itself is formed only for a packing that fits."""
    bits = (p - 1) * k.bit_length() + p * (mod - 1).bit_length()
    if 8 * _bits_slot_bytes(bits) * (p * (k - 1) + 1) > _PACKED_POWER_BITS:
        return None
    return _slot_bytes(k ** (p - 1) * (mod - 1) ** p)


def _pth_power(p, m, n, mod, poly):
    """The p-th power on coefficient tuples of R = (Z/mod)[theta]/(G)[t]/(t^n),
    G = poly of degree m: the ring of a `LocalRingCtx` with modulus mod.

    One coefficient (m = n = 1) is raised by pow(c, p, mod).  A polynomial
    in t (m = 1) or in theta (n = 1) takes one integer power of its
    Kronecker packing, in the slots of `_pth_slot_bytes`, and is finished by
    `_packed_sums`: the power in t is masked at t^n, and the p(m-1)+1 slots
    of the power in theta are reduced by G, with the rows for theta^m ..
    theta^(p(m-1)).  Rings with m, n > 1, and powers whose packing exceeds
    _PACKED_POWER_BITS, square and multiply on the packings of R's product."""
    if m * n == 1:
        return lambda a: (pow(a[0], p, mod),)
    width = None if m > 1 and n > 1 else _pth_slot_bytes(p, m * n, mod)
    if width is not None:
        red = _red_table(poly, m, mod, (p - 1) * (m - 1))
        pack, finish = _packed_sums(m, n, mod, red, (1 << 8 * width) - 1)
        return lambda a: finish(pack(a) ** p)
    pack, finish = _packed_sums(m, n, mod, _red_table(poly, m, mod),
                                _term_bound(m, n, mod))

    def pth(a):
        r, x, e = None, pack(a), p
        while e > 1:
            if e & 1:
                r = x if r is None else pack(finish(r * x))
            x, e = pack(finish(x * x)), e >> 1
        return finish(x if r is None else r * x)
    return pth


class LocalRingCtx:
    """The ring R_{e,n} over the residue field F_{p^m}, m = f*d: the base
    ring S when d = 1 and `base` is None, else the unramified extension T of
    relative degree d over `base`, a ring with the same (p, f, e, n).

    Its precision N is e for n = 1 and n for n > 1.  A ring with e > 1 and
    n > 1 is the lift (Z/p^e)[theta]/(G)[t]/(t^n) of an equal-characteristic
    ring that the Witt-vector ghost method computes in.

    `conjugates(k)` holds the elements sigma^k(theta^j), the structure
    constants of the twist of the order A, of its skew product and of
    T (x)_S T = prod_{Gal} T; every consumer reads them there.
    """

    def __init__(self, p, f, d, e, n, base=None):
        if not ffmod.is_prime(p):
            raise ParameterError(f"p = {p} is not prime")
        if f < 1 or d < 1:
            raise ParameterError("degrees must be >= 1")
        if e < 1 or n < 1:
            raise ParameterError("exponents e, n must be >= 1")
        if base is not None and (base.d, base.p, base.f, base.e, base.n) != (1, p, f, e, n):
            raise ParameterError("base must be a base ring with the same (p, f, e, n)")
        self.p = p
        self.f = f
        self.d = d
        self.prec = e if n == 1 else n
        self.base = base  # None when this ring is the base S
        self.m = m = f * d  # absolute residue degree
        self.poly = ffmod.defining_poly(p, m)  # G, coefficients in {0..p-1}
        # all elements are vectors over Z/p^e of length zp_rank
        self.e = e
        self.n = n
        self.residue = self if e * n == 1 else residue_field(p, m)
        self.zp_rank = m * n
        self.modulus = p ** e
        self._red = _red_table(self.poly, m, self.modulus)
        # packed sums of products: one (pack, finish) per slot width in use
        self._term_bound = _term_bound(m, n, self.modulus)
        self._sums = {}
        # (pack, finish) of a single product
        self._prod = self._sum_kernel(1)
        self._zero_tail = (0,) * (m * (n - 1))
        self.zero = RingElem(self, (0,) * self.zp_rank)
        self.one = self.from_int(1)
        # theta: generator over the prime ring (0 in the degree-1 convention)
        self.gen = (RingElem(self, (0, 1) + (0,) * (self.zp_rank - 2)) if m > 1
                    else self.zero)
        self.uniformizer = (self.from_int(p) if n == 1 else
                            RingElem(self, (0,) * m + (1,) + (0,) * (m * (n - 1) - 1)))
        self._phis = {}
        self._rel_maps = None
        self._setup_base_embedding()
        self._skew = None
        self._verify()

    # -- construction internals -------------------------------------------

    def _powers(self, z, k):
        """([z^j for j < k], the matrix rows of the map sending theta^j to
        z^j).  z must be constant in t; the map then acts on each t-block
        alike."""
        if any(z.coeffs[self.m:]):
            raise InternalError("generator image is not constant in t")
        powers = [self.one]
        for _ in range(1, k):
            powers.append(powers[-1] * z)
        return powers, list(zip(*[x.coeffs[:self.m] for x in powers]))

    def _phi(self, k):
        """(conjugates, block map) of phi^k, 0 <= k < m, built on first use:
        the elements phi^k(theta^j), j < m, and the map.

        The first use builds phi from phi(theta), the Newton root of G near
        theta^p, and applies it to find the images phi^k(theta), k <= m,
        checking phi^m(theta) = theta; phi^k is built from its image."""
        phis = self._phis
        if not phis:
            z = self._newton_root(self.poly, self.gen ** self.p)
            _, step = phis[1] = self._endo(z)
            images = [self.gen, z]
            for _ in range(1, self.m):
                images.append(RingElem(self, step(images[-1].coeffs)))
            if images.pop() != self.gen:
                raise InternalError("phi does not have order m on the generator")
            self._phi_images = images
        phi = phis.get(k)
        if phi is None:
            phi = phis[k] = self._endo(self._phi_images[k])
        return phi

    def conjugates(self, k):
        """[sigma^k(theta^j) for j < m], kept with phi^(f k) (`_phi`), so
        each element keeps its packing."""
        return self._phi(self.f * (k % self.d))[0]

    def _endo(self, z):
        """(the powers z^j for j < m, block map) of the endomorphism
        theta -> z, z constant in t."""
        powers, rows = self._powers(z, self.m)
        return powers, _block_map(rows, self.m, self.n, self.modulus)

    def _newton_root(self, int_poly, start):
        """Unique root of int_poly congruent to start mod p, by Newton iteration.

        Each step doubles the p-adic valuation of int_poly(z), which starts
        at >= 1, so (e - 1).bit_length() steps reach p^e (none at e = 1).
        No inverse is taken in this ring, whose Frobenius the inverse needs:
        w ~ 1/G'(z) is seeded with the residue-field inverse, and each step
        refines it, w <- w(2 - G'(z)w), before z <- z - G(z)w."""
        steps = (self.e - 1).bit_length()
        consts = [self.from_int(c) for c in int_poly]
        dconsts = [self.from_int(i * int_poly[i]) for i in range(1, len(int_poly))]
        two = self.from_int(2)
        z, w = start, None
        for _ in range(steps):
            dz = self._horner(dconsts, z)
            if w is None:
                if not dz.is_unit():
                    raise InternalError("Newton derivative is not a unit; "
                                        "unramified defining data is corrupt")
                w = self.from_residue(self.residue_of(dz).inv())
            w = w * (two - dz * w)
            z = z - self._horner(consts, z) * w
        if not self._horner(consts, z).is_zero():
            raise InternalError("Newton iteration failed to converge")
        return z

    def _eval_int_poly(self, int_poly, z):
        return self._horner([self.from_int(c) for c in int_poly], z)

    def _horner(self, consts, z):
        acc = self.zero
        for c in reversed(consts):
            acc = acc * z + c
        return acc

    def _setup_base_embedding(self):
        base = self.base
        if base is None:
            self.base_gen_image = self.gen
            return
        # root of the base defining polynomial, Newton-lifted from the
        # residue-field embedding root (already exact when e = 1)
        r = ffmod.embedding_root(base.residue, self.residue)
        self.base_gen_image = self._newton_root(base.poly, self.from_residue(r))
        self._embed_map = _block_map(self._powers(self.base_gen_image, base.m)[1],
                                     base.m, self.n, self.modulus)

    def _verify(self):
        if self.d > 1:
            if not self._eval_int_poly(self.poly, self.frobenius(self.gen, 1)).is_zero():
                raise InternalError("sigma(theta) is not a root of G")
            for k in range(1, self.d):
                if self.frobenius(self.gen, k) == self.gen:
                    raise InternalError("sigma has order smaller than d")
        if self.base is not None:
            img = self.embed_base(self.base.gen)
            if self.frobenius(img, 1) != img:
                raise InternalError("sigma does not fix the embedded base ring")

    # -- element constructors ---------------------------------------------

    def from_int(self, a: int):
        return RingElem(self, (a % self.modulus,) + (0,) * (self.zp_rank - 1))

    def from_residue(self, a):
        """The lift of a residue-field element with t- and p-digits 0."""
        return RingElem(self, a.coeffs + self._zero_tail)

    def random(self, rng):
        mod = self.modulus
        return RingElem(self, tuple([rng.randrange(mod) for _ in range(self.zp_rank)]))

    # -- ring-level maps ---------------------------------------------------

    def frobenius(self, x, k=1):
        """sigma^k(x) = phi^(f (k mod d))(x): sigma = phi^f generates Gal(T/S)."""
        return self.frobenius_p(x, self.f * (k % self.d))

    def frobenius_p(self, x, k=1):
        """Absolute p-power Frobenius lift phi^(k mod m), fixing t."""
        if x.ctx is not self:
            raise CtxMismatchError("element does not belong to this ring")
        k %= self.m
        if k == 0:
            return x
        return RingElem(self, self._phi(k)[1](x.coeffs))

    def embed_base(self, x):
        """Image of a base-ring element under the stored embedding S -> T."""
        if self.base is None:
            return x
        if x.ctx is not self.base:
            raise CtxMismatchError("element does not belong to the base ring")
        return RingElem(self, self._embed_map(x.coeffs))

    def to_base(self, x):
        """Preimage in S of an element of the embedded base ring: its
        relative coordinate 0.

        Raises InternalError when x does not lie in the embedded image.
        """
        if x.ctx is not self:
            raise CtxMismatchError("element does not belong to this ring")
        base = self.base
        if base is None:
            return x
        y = RingElem(base, self._rel_coord_maps()[0](x.coeffs))
        if self.embed_base(y) != x:
            raise InternalError("element does not lie in the embedded base ring")
        return y

    def rel_coords(self, x):
        """Coordinates of x in the S-basis (theta^j)_{j<d}: list of d base elements."""
        if x.ctx is not self:
            raise CtxMismatchError("element does not belong to this ring")
        base = self.base
        if base is None:
            return [x]
        return [RingElem(base, coord(x.coeffs)) for coord in self._rel_coord_maps()]

    def _rel_coord_maps(self):
        """The maps taking x to its relative coordinate j, built on first use."""
        if self._rel_maps is None:
            fb, m = self.base.m, self.m
            # basis theta^j * theta_S^l (index j*f + l) of one t-block, by
            # running products, as a matrix over Z/p^e; rows j*f .. j*f + f-1
            # of its inverse give coordinate j of every t-block
            zp = LocalRingCtx(self.p, 1, 1, self.e, 1)
            cols, gj = [], self.one
            for j in range(self.d):
                b = gj = gj * self.gen if j else gj
                for l in range(fb):
                    b = b * self.base_gen_image if l else b
                    cols.append([zp.from_int(c) for c in b.coeffs[:m]])
            try:
                inv = linalg.rmat_inv(list(zip(*cols)), zp)
            except NotInvertibleError:
                raise InternalError("relative coordinate solve failed") from None
            rows = [[x.coeffs[0] for x in row] for row in inv]
            self._rel_maps = [_block_map(rows[j * fb:(j + 1) * fb], m, self.n, self.modulus)
                              for j in range(self.d)]
        return self._rel_maps

    # -- sums of products -------------------------------------------------

    def _sum_kernel(self, terms):
        """(pack, finish) for sums of up to `terms` products, in the
        narrowest slots that hold them (the slot width grows with terms)."""
        return self._slot_kernel(_slot_bytes(max(terms, 1) * self._term_bound))

    def _row_kernel(self, terms):
        """`_sum_kernel(terms)`, red(c) = pack(finish(c)), and the bits of one
        product: the segment of an entry in a packed row (`linalg.eliminate`)."""
        width = _slot_bytes(max(terms, 1) * self._term_bound)
        pack, finish = self._slot_kernel(width)
        red = self.modulus.__rmod__ if self.zp_rank == 1 else (lambda c: pack(finish(c)))
        return pack, finish, red, 8 * width * (2 * self.m - 1) * (2 * self.n - 1)

    def _slot_kernel(self, width):
        """(pack, finish) in slots of `width` bytes, a `_slot_bytes` value,
        built once and kept: its n = 1 finish is compiled."""
        kernel = self._sums.get(width)
        if kernel is None:
            kernel = self._sums[width] = _packed_sums(self.m, self.n, self.modulus, self._red,
                                                      (1 << 8 * width) - 1, compiled=True)
        return kernel

    def _skew_kernel(self):
        """(pack, split, columns, fold) for the skew products of
        `algebra.skew_mul` over this ring, which run on packings: each
        output coefficient sums d products y * sigma^k(z) (d the degree of
        this ring over its base) and folds in the wrap pi * (the sum above
        x^d) before its one finish.

        sigma^k is Z/p^e-linear, so it acts on a packing: split(a) is the
        packing of the element a (`RingElem._packing`) with its
        theta-segments, None for zero (for n = 1 the segments are the
        coefficients, for n > 1 the packed t-polynomials), and
        columns[k][l], the packing of sigma^k(theta^l) (`conjugates`, whose
        elements keep it), makes sum_l segs[l] * columns[k][l] the packing
        of sigma^k(a), unreduced (columns[0] is None: sigma^0(a) is the
        packing itself).

        fold(lo, hi) is the element lo + pi * hi of two such sums: lo + p*hi
        for n = 1, and for n > 1 hi shifted up one t-slot, after `low`
        drops the slots t^(n-1).. that t * hi truncates (they would spill
        into the next theta-segment).  The slots hold d times _term_bound,
        grown by the unreduced operand, m(p^e - 1), and by the fold: the d
        products of one coefficient split between lo and hi, so lo + p*hi
        stays below p times their bound, and for n > 1 the shifted hi adds
        its terms to the slots of lo.  The kernel is built on first use.
        """
        kernel = self._skew
        if kernel is None:
            m, n, mod = self.m, self.n, self.modulus
            wrap = self.p if n == 1 else 1
            width = _slot_bytes(self.d * self._term_bound * m * (mod - 1) * wrap)
            pack, finish = self._slot_kernel(width)
            bits = 8 * width
            seg = bits * (2 * n - 1)  # one theta-degree of a product
            columns = [None] + [[t._packing(pack) for t in self.conjugates(k)]
                                for k in range(1, self.d)]
            zero = self.zero
            if n == 1:
                p = self.p

                def split(a):
                    x = a._packing(pack)
                    return (x, a.coeffs) if x else None

                def fold(lo, hi):
                    c = lo + p * hi
                    return RingElem(self, finish(c)) if c else zero
            else:
                mask = (1 << seg) - 1
                low = sum(((1 << bits * (n - 1)) - 1) << (j * seg)
                          for j in range(2 * m - 1))

                def split(a):
                    x = a._packing(pack)
                    return (x, [(x >> (l * seg)) & mask for l in range(m)]) if x else None

                def fold(lo, hi):
                    c = lo + ((hi & low) << bits)
                    return RingElem(self, finish(c)) if c else zero
            kernel = self._skew = (pack, split, columns, fold)
        return kernel

    def _packings(self, xs, pack):
        """The packing of each element x of this ring (`RingElem._packing`)."""
        out = []
        for x in xs:
            if x.ctx is not self:
                raise CtxMismatchError("operands from different ring contexts")
            out.append(x._packing(pack))
        return out

    def dot(self, xs, ys):
        """sum_i xs[i] * ys[i]: the integer products of the packings are
        added, and the sum is reduced by G and p^e once."""
        pack, finish = self._sum_kernel(len(xs))
        return self._packed_dot(self._packings(xs, pack), self._packings(ys, pack), finish)

    def _packed_dot(self, pxs, pys, finish):
        """sum_i pxs[i] * pys[i] of packings, finished into an element."""
        c = sum(map(_mul, pxs, pys))
        return RingElem(self, finish(c)) if c else self.zero

    def matmul(self, A, B):
        """The matrix product A * B: each entry is packed once, and each
        output entry is one packed sum, reduced once."""
        pack, finish = self._sum_kernel(len(B))
        rows = [self._packings(row, pack) for row in A]
        cols = [self._packings(col, pack) for col in zip(*B)]
        return [[self._packed_dot(row, col, finish) for col in cols] for row in rows]

    # -- Z/p^e module structure (shared linear-algebra interface) ----------

    def to_vec(self, x):
        return list(x.coeffs)

    def from_vec(self, v):
        if len(v) != self.zp_rank:
            raise ParameterError(f"expected {self.zp_rank} coordinates")
        mod = self.modulus
        return RingElem(self, tuple([c % mod for c in v]))

    # -- residue field and Teichmueller section ----------------------------

    def residue_of(self, x):
        if x.ctx is not self:
            raise CtxMismatchError("element does not belong to this ring")
        return self.residue.from_vec(x.coeffs[:self.m])

    def teich(self, a):
        """Unique lift y of a with y^{q^d} = y (multiplicative section)."""
        if not isinstance(a, RingElem) or a.ctx is not self.residue:
            raise CtxMismatchError("Teichmueller argument must lie in the residue field")
        y = self.from_residue(a)
        if self.e == 1:
            return y  # F_p-coefficients: the constant lift is multiplicative
        q_full = self.p ** self.m
        for _ in range(self.e):
            y2 = y ** q_full
            if y2 == y:
                break
            y = y2
        return y

    # -- relative trace and norm ------------------------------------------

    def trace_rel(self, x):
        return sum((self.frobenius(x, k) for k in range(self.d)), self.zero)

    def norm_rel(self, x):
        acc = self.one
        for k in range(self.d):
            acc = acc * self.frobenius(x, k)
        return acc

    def __repr__(self):
        return (f"LocalRing(p={self.p}, f={self.f}, d={self.d}, e={self.e}, "
                f"n={self.n})")


class RingElem:
    """Element of a LocalRingCtx: its flat coefficient tuple over Z/p^e, and
    its Kronecker packing once a packed kernel asked for it (`_packing`).

    The product of two elements multiplies their packings as integers and
    finishes the result once (`LocalRingCtx._prod`)."""

    __slots__ = ("ctx", "coeffs", "_packed")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs
        self._packed = None  # (pack, pack(coeffs)) of the last kernel asked

    def _packing(self, pack):
        """pack(coeffs), 0 for zero, for a kernel's pack function: computed
        once per kernel, since the element keeps the last packing with the
        pack function that made it (kernels of different slot widths have
        different pack functions)."""
        cached = self._packed
        if cached is not None and cached[0] is pack:
            return cached[1]
        x = pack(self.coeffs) if any(self.coeffs) else 0
        self._packed = (pack, x)
        return x

    def _check(self, other):
        if not isinstance(other, RingElem) or other.ctx is not self.ctx:
            raise CtxMismatchError("operands from different ring contexts")

    def __add__(self, other):
        self._check(other)
        mod = self.ctx.modulus
        return RingElem(self.ctx, tuple([(a + b) % mod
                                         for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other):
        self._check(other)
        mod = self.ctx.modulus
        return RingElem(self.ctx, tuple([(a - b) % mod
                                         for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self):
        mod = self.ctx.modulus
        return RingElem(self.ctx, tuple([-a % mod for a in self.coeffs]))

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        pack, finish = ctx._prod
        c = self._packing(pack) * other._packing(pack)
        return RingElem(ctx, finish(c)) if c else ctx.zero

    def scale(self, c: int):
        """Product with the integer c."""
        mod = self.ctx.modulus
        return RingElem(self.ctx, tuple([a * c % mod for a in self.coeffs]))

    def __pow__(self, e: int):
        return power(self, e, self.ctx.one)

    def is_zero(self):
        return not any(self.coeffs)

    def ord(self) -> int:
        """Uniformizer-adic valuation; ctx.prec means zero at this precision."""
        ctx = self.ctx
        if ctx.n == 1:  # p-adic: the least valuation is that of the gcd
            return _val(math.gcd(*self.coeffs), ctx.p, ctx.prec)
        for k, c in enumerate(self.coeffs):  # t-adic: first nonzero t-block
            if c:
                return k // ctx.m
        return ctx.prec

    def is_unit(self):
        p = self.ctx.p
        return any(c % p for c in self.coeffs[:self.ctx.m])

    def inv(self):
        """x^-1 = y * N(x)^-1 (Itoh-Tsujii): y is the product of the
        Frobenius conjugates phi^k(x), 0 < k < m, so the norm N(x) = x*y is
        fixed by phi and lies in the prime ring (Z/p^e)[t]/(t^n).  There a
        unit is inverted digit by digit: pow(c_0, -1, p^e), then the
        t-series recurrence b_k = -b_0 * sum_{0<j<=k} c_j b_{k-j}."""
        ctx = self.ctx
        if not self.is_unit():
            v = self.ord()
            raise NotInvertibleError(f"element of valuation {v} is not a unit", ord=v)
        m, mod = ctx.m, ctx.modulus
        y, c = None, self  # y: the product of the conjugates phi^k(x), 0 < k < m
        for k in range(1, m):
            c = ctx.frobenius_p(c)
            y = c if k == 1 else y * c
        norm = self.coeffs if y is None else (self * y).coeffs
        if any(any(norm[j::m]) for j in range(1, m)):
            raise InternalError("norm does not lie in the prime ring")
        digits = norm[::m]
        if digits[0] % ctx.p == 0:
            raise InternalError("norm of a unit is not a unit")
        b = [pow(digits[0], -1, mod)]
        for k in range(1, ctx.n):
            b.append(-b[0] * sum(map(_mul, digits[1:k + 1], reversed(b))) % mod)
        series = [0] * ctx.zp_rank
        series[::m] = b
        z = RingElem(ctx, tuple(series))
        y = z if y is None else y.scale(b[0]) if ctx.n == 1 else y * z
        if self * y != ctx.one:
            raise InternalError("inverse fails the check x * x^-1 = 1")
        return y

    def shift_down(self, k: int):
        """Exact division by the k-th power of the uniformizer; k < 0
        multiplies by its (-k)-th power: scales by p^(-k) when n = 1, shifts
        the t-blocks up and truncates when n > 1."""
        if k == 0:
            return self
        ctx = self.ctx
        if k < 0:
            if ctx.n == 1:
                return self.scale(ctx.p ** min(-k, ctx.e))  # p^e = 0
            km = min(-k, ctx.n) * ctx.m
            return RingElem(ctx, (0,) * km + self.coeffs[:ctx.zp_rank - km])
        if ctx.n == 1:
            pk = ctx.p ** min(k, ctx.e)  # beyond p^e only zero divides
            if any(c % pk for c in self.coeffs):
                raise PrecisionError(f"element is not divisible by p^{k}")
            return RingElem(ctx, tuple([c // pk for c in self.coeffs]))
        km = min(k, ctx.n) * ctx.m
        if any(self.coeffs[:km]):
            raise PrecisionError(f"element is not divisible by t^{k}")
        return RingElem(ctx, self.coeffs[km:] + (0,) * km)

    def __eq__(self, other):
        return (isinstance(other, RingElem) and other.ctx is self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __repr__(self):
        return f"Elem{self.serialize()}"

    def serialize(self):
        """The coefficients (n = 1), or the t-digits as theta-coefficient lists."""
        if self.ctx.n == 1:
            return list(self.coeffs)
        m = self.ctx.m
        return [list(self.coeffs[i:i + m]) for i in range(0, len(self.coeffs), m)]


def _check_prec(prec):
    if prec < 2:
        raise ParameterError("precision N must be >= 2")


@functools.lru_cache(maxsize=None)
def residue_field(p: int, m: int) -> LocalRingCtx:
    """F_{p^m}: the ring R_{e,n} at (e, n) = (1, 1), with Frobenius frobenius_p."""
    return LocalRingCtx(p, m, 1, 1, 1)


def base_ring(p: int, f: int, prec: int, mode: str = MIXED) -> LocalRingCtx:
    """The base ring S with residue field F_{p^f} at precision N: (e, n) is
    (N, 1) in mixed and (1, N) in equal characteristic."""
    _check_prec(prec)
    if mode not in (MIXED, EQUAL):
        raise ParameterError(f"unknown mode {mode!r}")
    e, n = (prec, 1) if mode == MIXED else (1, prec)
    return LocalRingCtx(p, f, 1, e, n)


def unramified(S: LocalRingCtx, d: int) -> LocalRingCtx:
    """Unramified extension T/S of relative degree d with its Frobenius sigma."""
    _check_prec(S.prec)
    if d < 1:
        raise ParameterError("relative degree d must be >= 1")
    if S.d != 1:
        raise ParameterError("base of an unramified extension must be a base ring")
    if d == 1:
        return S
    return LocalRingCtx(S.p, S.f, d, S.e, S.n, base=S)
