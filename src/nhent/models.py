"""Kernel-matrix builders for the lattice model zoo.

Every model is a quadratic (particle-number conserving) fermion Hamiltonian
H = sum_ij K[i, j] c^dag_i c_j, given as a ``KernelMatrix``: the complex
kernel K plus site metadata.  A kernel is held as its dense entries, or, for
a periodic chain whose cells all carry one onsite block, as its three cell
blocks, from which the dense entries are assembled only when read.
Momentum-space forms use the Fourier convention

    c^dag_{x,s} = (1/sqrt(N)) sum_k exp(-i k x) c^dag_{k,s},

so a hopping from cell x to cell x+d contributes exp(-i k d) to the Bloch
matrix H(k)_{ss'} = sum_d K_{ss'}(d) exp(-i k d), and momentum grids are
k_m = 2 pi m / N with m = 0 .. N-1.

Chain kernels are laid out cell-major: sublattice s of cell x is mode
ns * x + s with site label (x, s).  Each chain is filled from per-cell
onsite blocks and the nearest-cell hopping blocks K(d=+1), K(d=-1).  Open
chains carry the N - 1 bulk bonds; periodic chains add the wrap bond from
cell N - 1 to cell 0, which for N = 2 lands on the bulk bond's entries and
adds to them (for N = 1, on the onsite block).

A model family is its builder: ``FAMILIES`` maps each family name to its
parameter names, read from the builder's signature, and its builder.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from ._linalg import is_hermitian
from .errors import (NormalizationError, SingularPotentialError, SizeError,
                     UnsupportedError)

__all__ = [
    "KernelMatrix",
    "ModelSpec",
    "FAMILIES",
    "bloch_reduce",
    "bloch_momenta",
    "fibonacci_approximant",
    "build_hatano_nelson",
    "build_nh_ssh_real",
    "build_nh_ssh_bloch",
    "build_quasicrystal",
    "build_guo_chain",
    "build_guo_2d",
    "build_chern_ribbon",
    "build_eb_ssh",
    "build_measurement_heff",
    "build_heff_from_jumps",
    "build_uniform_chain",
]

# a mobility-edge potential denominator below this in modulus is singular
SINGULAR_DENOMINATOR_TOL = 1e-12
# a projector jump vector's 2-norm may differ from 1 by at most this
PROJECTOR_NORM_TOL = 1e-10


class KernelMatrix:
    """Single-particle kernel with site metadata.

    A kernel is given by its dense ``entries``, or, for a chain built by
    ``_cell_chain`` that is open or whose cells all carry the same onsite
    block, by its cell blocks: it assembles ``entries`` on first read, so
    building a chain only to read its size forms no dim x dim array.  An
    open chain's entries are then an ordinary array.  A periodic one (a
    block kernel) keeps its ``cell_blocks`` and its entries read-only, and
    its Bloch matrices (``bloch_reduce``) read the blocks alone, so a ring
    forms no dim x dim array unless a dense consumer asks for one.  The
    blocks serve only while the site labels are the ones it was built
    with: a relabelled block kernel, like any kernel given by its entries,
    has no Bloch reduction and is solved dense.

    Attributes
    ----------
    dim : int
        Total number of single-particle modes.
    entries : np.ndarray
        Complex dim x dim matrix; entries[i, j] multiplies c^dag_i c_j.
    bc : str
        'open' or 'periodic'.
    site_labels : list[tuple[int, int]]
        (cell index, sublattice index) per mode.  After a Fourier transform
        the cell index becomes a momentum-grid index.
    cell_blocks : tuple or None
        (onsite, hop_plus, hop_minus), read-only (ns, ns) blocks of a block
        kernel: K(d=0), K(d=+1) and K(d=-1); None for a dense one.
    """

    def __init__(self, dim: int, entries, bc: str, site_labels=None):
        self.dim, self.bc, self.cell_blocks = dim, bc, None
        self._entries = np.asarray(entries, dtype=complex)
        if self._entries.shape != (dim, dim):
            raise SizeError(f"entries shape {self._entries.shape} != ({dim}, {dim})")
        if not np.all(np.isfinite(self._entries)):
            raise ValueError("kernel entries must be finite")
        if bc not in ("open", "periodic"):
            raise ValueError(f"unknown boundary condition {bc!r}")
        self.site_labels = site_labels or [(i, 0) for i in range(dim)]

    @classmethod
    def _chain(cls, onsite, hop_plus, hop_minus, site_labels,
               bc: str) -> KernelMatrix:
        """The ``_cell_chain`` kernel of the (n_cells, ns, ns) ``onsite``
        stack on the cell-major ``site_labels``, kept as its blocks; a
        periodic one has every cell carry onsite[0]."""
        km = cls.__new__(cls)
        km.dim, km.bc, km._entries = len(site_labels), bc, None
        km.site_labels, km.cell_blocks = site_labels, None
        km._parts = (onsite, hop_plus, hop_minus)
        # an open chain's entries: its onsite blocks, and from two cells on
        # its bonds
        entries = km._parts if len(onsite) > 1 else (onsite,)
        if bc == "periodic":
            ns = onsite.shape[1]
            km.cell_blocks = tuple(np.array(np.broadcast_to(b, (ns, ns)),
                                            dtype=complex)
                                   for b in (onsite[0], hop_plus, hop_minus))
            for b in km.cell_blocks:
                b.flags.writeable = False
            km._parts = (np.broadcast_to(km.cell_blocks[0], onsite.shape),
                         *km.cell_blocks[1:])
            # every entry of the ring is an entry of its column blocks
            entries = (km._column_blocks()[1],)
        if not all(np.isfinite(b).all() for b in entries):
            raise ValueError("kernel entries must be finite")
        return km

    def __repr__(self) -> str:
        held = (f"entries={self.entries!r}" if self.cell_blocks is None
                else f"cell_blocks={self.cell_blocks!r}")
        return f"KernelMatrix(dim={self.dim}, {held}, bc={self.bc!r})"

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = _chain_entries(*self._parts, self.bc)
            del self._parts
            # a ring's entries stay those of its cell blocks
            self._entries.flags.writeable = self.cell_blocks is None
        return self._entries

    @property
    def cell_sites(self) -> np.ndarray:
        """(n_cells, n_sublattices) int array: the mode at each (cell, sublattice).

        Raises SizeError unless the site labels fill every slot exactly once.
        """
        labels = np.asarray(self.site_labels, dtype=int)
        nc, ns = labels.max(axis=0) + 1
        slots = labels[:, 0] * ns + labels[:, 1]
        if (labels.min() < 0 or nc * ns != self.dim
                or np.unique(slots).size != self.dim):
            raise SizeError(f"site labels do not tile {nc} cells x "
                            f"{ns} sublattices once each")
        pos = np.empty(self.dim, dtype=int)
        pos[slots] = np.arange(self.dim)
        return pos.reshape(nc, ns)

    def is_hermitian(self) -> bool:
        return is_hermitian(self.entries)

    def _blocks_on(self, pos) -> bool:
        """Whether the cell blocks describe the kernel on the cell map
        ``pos``: a block kernel whose site labels were not changed."""
        return (self.cell_blocks is not None
                and pos.shape[1] == len(self.cell_blocks[0])
                and np.array_equal(pos.ravel(), np.arange(self.dim)))

    def _column_blocks(self):
        """(x, blocks) of a block kernel: the ascending cell offsets x among
        {0, 1, N - 1} and blocks[i] = K[(x[i], s), (0, s')], each summed in
        the order the wrap rule adds its bonds (one block at N = 1, and the
        bulk plus the wrap bond at N = 2)."""
        onsite, hop_plus, hop_minus = self.cell_blocks
        nc = self.dim // len(onsite)
        x = np.unique([0, 1 % nc, nc - 1])
        blocks = np.zeros((x.size,) + onsite.shape, dtype=complex)
        blocks[0] = onsite
        blocks[x.searchsorted(1 % nc)] += hop_plus
        blocks[-1] += hop_minus
        return x, blocks


def fibonacci_approximant(L: int) -> Fraction:
    """Rational approximant p/q to the inverse golden mean with q = L.

    L must be a Fibonacci number; the returned fraction is F_{k-1}/F_k
    with F_k = L (so e.g. L=144 gives 89/144).
    """
    a, b = 1, 1
    while b < L:
        a, b = b, a + b
    if b != L:
        raise SizeError(f"L={L} is not a Fibonacci number")
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# real-space builders
# ---------------------------------------------------------------------------

def _cell_chain(onsite, hop_plus, hop_minus, bc: str) -> KernelMatrix:
    """Chain kernel in the cell-major layout.

    ``onsite`` is an (n_cells, ns, ns) stack of diagonal blocks,
    ``hop_plus`` is K(d=+1) (hopping from cell x to x+1) and ``hop_minus``
    is K(d=-1): independent (ns, ns) blocks for non-Hermitian models, or
    scalars when ns = 1.  An open chain, and a periodic chain whose onsite
    blocks are all bit for bit the first one, keep their blocks until
    ``entries`` is read (``KernelMatrix._chain``); every other chain is
    assembled dense here.
    """
    onsite = np.asarray(onsite, dtype=complex)
    nc, ns, _ = onsite.shape
    labels = [(c, s) for c in range(nc) for s in range(ns)]
    # bits, not values: 0.0 == -0.0, but the assembled entries would differ
    bits = np.ascontiguousarray(onsite).view(np.int64)
    if bc == "open" or bc == "periodic" and nc and (bits == bits[0]).all():
        return KernelMatrix._chain(onsite, hop_plus, hop_minus, labels, bc)
    return KernelMatrix(nc * ns, _chain_entries(onsite, hop_plus, hop_minus, bc),
                        bc, labels)


def _chain_entries(onsite, hop_plus, hop_minus, bc: str) -> np.ndarray:
    """The dense entries of a ``_cell_chain``; the only home of the wrap rule."""
    nc, ns, _ = onsite.shape
    K = np.zeros((nc, ns, nc, ns), dtype=complex)
    x = np.arange(nc)
    K[x, :, x, :] = onsite
    K[x[1:], :, x[:-1], :] += hop_plus
    K[x[:-1], :, x[1:], :] += hop_minus
    if bc == "periodic":
        K[0, :, -1, :] += hop_plus
        K[-1, :, 0, :] += hop_minus
    return K.reshape(nc * ns, nc * ns)


def build_hatano_nelson(L: int, t: float, alpha: float, bc: str = "open") -> KernelMatrix:
    """Nonreciprocal chain H = -t sum_x (e^alpha c+_x c_{x+1} + e^-alpha c+_{x+1} c_x).

    entries[x, x+1] = -t e^alpha and entries[x+1, x] = -t e^-alpha; under
    periodic bc the wrap bond accumulates onto the same pair (for L = 2 the
    bulk and wrap bonds coincide and both contributions add).
    """
    if L < 2:
        raise SizeError(f"Hatano-Nelson chain needs L >= 2, got {L}")
    return _cell_chain(np.zeros((L, 1, 1)), -t * math.exp(-alpha),
                       -t * math.exp(alpha), bc)


def build_uniform_chain(L: int, t: float = 1.0, bc: str = "periodic") -> KernelMatrix:
    """Hermitian uniform hopping chain, -t on every bond."""
    return build_hatano_nelson(L, t, 0.0, bc)


def build_nh_ssh_real(N_cells: int, omega: float, upsilon: float, u: float,
                      bc: str = "open") -> KernelMatrix:
    """PT-symmetric SSH chain with staggered imaginary potential.

    Cell x holds sites (2x, 2x+1).  Reciprocal hoppings: upsilon inside the
    cell, omega between cells; on-site +iu on even sites, -iu on odd sites.
    The Bloch matrix is [[iu, v_k], [v_k*, -iu]] with v_k = omega e^{-ik} + upsilon.
    """
    if N_cells < 2:
        raise SizeError(f"SSH chain needs >= 2 cells, got {N_cells}")
    onsite = np.array([[1j * u, upsilon], [upsilon, -1j * u]])
    hop = np.array([[0, omega], [0, 0]], dtype=complex)
    return _cell_chain(np.broadcast_to(onsite, (N_cells, 2, 2)), hop, hop.T, bc)


def build_nh_ssh_bloch(k: float, omega: float, upsilon: float, u: float):
    """Bloch matrix of the PT SSH model and its eigenvalue pair.

    Returns the 2x2 matrix [[iu, v_k], [v_k*, -iu]] with
    v_k = omega e^{-ik} + upsilon, and the eigenvalues
    +-sqrt(|v_k|^2 - u^2) (principal square root).
    """
    vk = omega * np.exp(-1j * k) + upsilon
    h = np.array([[1j * u, vk], [np.conj(vk), -1j * u]], dtype=complex)
    e = np.sqrt(complex(abs(vk) ** 2 - u ** 2))
    return h, (e, -e)


def build_quasicrystal(L: int, J_L: float, J_R: float, V: float, alpha,
                       variant: str = "exp_phase", a: float = 0.0,
                       bc: str = "periodic") -> KernelMatrix:
    """Non-Hermitian quasicrystal chain with asymmetric hopping.

    H = sum_n (J_R c+_{n+1} c_n + J_L c+_n c_{n+1}) + sum_n V_n n_n with
    V_n = V exp(-2 pi i alpha n) for variant 'exp_phase' and
    V_n = V / (1 - a exp(i 2 pi alpha n)) for variant 'mobility_edge'.

    alpha is a rational approximant p/q, given as anything ``Fraction``
    takes (a "p/q" string, for one) or as a [p, q] pair; under periodic bc
    q must equal L so the potential is exactly commensurate with the ring.
    """
    if L < 2:
        raise SizeError(f"quasicrystal chain needs L >= 2, got {L}")
    if isinstance(alpha, (list, tuple)) and len(alpha) == 2:
        alpha = Fraction(int(alpha[0]), int(alpha[1]))
    alpha = Fraction(alpha)
    if bc == "periodic" and alpha.denominator != L:
        raise SizeError(
            f"periodic quasicrystal needs approximant denominator q == L, "
            f"got q={alpha.denominator}, L={L}")
    phase = 2.0 * math.pi * float(alpha) * np.arange(L)
    if variant == "exp_phase":
        potential = V * np.exp(-1j * phase)
    elif variant == "mobility_edge":
        den = 1.0 - a * np.exp(1j * phase)
        singular = np.flatnonzero(np.abs(den) < SINGULAR_DENOMINATOR_TOL)
        if singular.size:
            raise SingularPotentialError(
                f"potential denominator vanishes at site {singular[0]}")
        potential = V / den
    else:
        raise ValueError(f"unknown quasicrystal variant {variant!r}")
    return _cell_chain(potential[:, None, None], J_R, J_L, bc)


def build_guo_chain(L: int, n: int, t: float = 1.0, gamma: float = 0.0,
                    bc: str = "periodic") -> KernelMatrix:
    """Chain with one nonreciprocal bond per n-site cell.

    The first bond of each cell carries t^L = t + gamma/2 on c+_i c_{i+1}
    and t^R = t - gamma/2 on c+_{i+1} c_i; all other bonds are reciprocal
    with strength t.
    """
    if n < 2:
        raise SizeError(f"cell size must be >= 2, got {n}")
    if L % n != 0:
        raise SizeError(f"L={L} not divisible by cell size n={n}")
    cell = np.zeros((n, n), dtype=complex)
    s = np.arange(n - 1)
    cell[s, s + 1] = cell[s + 1, s] = t
    cell[0, 1], cell[1, 0] = t + gamma / 2.0, t - gamma / 2.0
    hop = np.zeros((n, n), dtype=complex)
    hop[0, n - 1] = t
    return _cell_chain(np.broadcast_to(cell, (L // n, n, n)), hop, hop.T, bc)


def build_guo_2d(Lx: int, Ly: int, gamma: float, bc: str = "periodic") -> KernelMatrix:
    """2D generalization with dimerized nonreciprocal bonds along both axes.

    Bonds (2m, 2m+1) along x and along y carry (1 + gamma/2, 1 - gamma/2);
    bonds (2m+1, 2m+2) are reciprocal with strength 1.  Sites are flattened
    row-major with x fastest, so contiguous index ranges are y-slabs.
    """
    if Lx % 2 or Ly % 2:
        raise SizeError(f"Guo 2D needs even sizes, got Lx={Lx}, Ly={Ly}")
    # kron(I_Ly, chain(Lx)) + kron(chain(Ly), I_Lx), added index-wise
    K = np.zeros((Ly, Lx, Ly, Lx), dtype=complex)
    iy, ix = np.arange(Ly), np.arange(Lx)
    K[iy, :, iy, :] += build_guo_chain(Lx, 2, 1.0, gamma, bc).entries
    K[:, ix, :, ix] += build_guo_chain(Ly, 2, 1.0, gamma, bc).entries
    labels = [((y // 2) * (Lx // 2) + x // 2, (x % 2) + 2 * (y % 2))
              for y in range(Ly) for x in range(Lx)]
    return KernelMatrix(Lx * Ly, K.reshape(Lx * Ly, Lx * Ly), bc, labels)


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def build_chern_ribbon(L: int, k_perp: float, t: float, m: float, gamma: float,
                       cut_axis: str = "x") -> KernelMatrix:
    """Non-Hermitian Chern-insulator ribbon, one axis open and one in momentum.

    Bulk Bloch Hamiltonian:
    H(kx, ky) = (m + t cos kx + t cos ky) sx + (i gamma + t sin kx) sy
              + (t sin ky) sz.
    cut_axis names the direction the entanglement/real-space cut runs along:
    cut_axis='x' keeps kx = k_perp and opens the y axis (and vice versa).
    The open axis is inverse-Fourier transformed, giving a 2L x 2L kernel
    with range-1 hopping blocks and open ends.
    """
    sx, sy, sz = _PAULI["x"], _PAULI["y"], _PAULI["z"]
    if cut_axis == "x":
        # open axis is y: cos ky -> t*sx, sin ky -> t*sz
        onsite = (m + t * np.cos(k_perp)) * sx + (1j * gamma + t * np.sin(k_perp)) * sy
        cos_blk, sin_blk = t * sx, t * sz
    elif cut_axis == "y":
        # open axis is x: cos kx -> t*sx, sin kx -> t*sy
        onsite = (m + t * np.cos(k_perp)) * sx + 1j * gamma * sy + t * np.sin(k_perp) * sz
        cos_blk, sin_blk = t * sx, t * sy
    else:
        raise ValueError(f"cut_axis must be 'x' or 'y', got {cut_axis!r}")
    # cos k -> K(+-1) += B/2 ; sin k -> K(+1) += (i/2) C, K(-1) -= (i/2) C
    hop_plus = cos_blk / 2.0 + 0.5j * sin_blk
    hop_minus = cos_blk / 2.0 - 0.5j * sin_blk
    return _cell_chain(np.broadcast_to(onsite, (L, 2, 2)), hop_plus, hop_minus,
                       "open")


def build_eb_ssh(L: int, nu: float, w: float, gamma0: float,
                 bc: str = "periodic") -> KernelMatrix:
    """Generalized SSH chain hosting exceptional bound states.

    Bloch form (after exchanging the sy and sz components so the real-space
    kernel matches the long-wavelength normal form with B=2, a0=2(nu-w),
    b0=w/2):
    H(k) = (nu - w cos k) sx + i(nu - w) sy + gamma0 sin k sz.
    The spectrum +-sqrt((nu - w cos k)^2 + gamma0^2 sin^2 k - (nu - w)^2)
    vanishes at k=0 for every parameter choice; for nu != w the k=0 block is
    a nilpotent Jordan block (an exceptional point).
    """
    sx, sy, sz = _PAULI["x"], _PAULI["y"], _PAULI["z"]
    onsite = nu * sx + 1j * (nu - w) * sy
    cos_blk, sin_blk = -w * sx, gamma0 * sz
    hop_plus = cos_blk / 2.0 + 0.5j * sin_blk
    hop_minus = cos_blk / 2.0 - 0.5j * sin_blk
    return _cell_chain(np.broadcast_to(onsite, (L, 2, 2)), hop_plus, hop_minus,
                       bc)


def build_measurement_heff(L: int, t: float, Gamma: float, bc: str = "open") -> KernelMatrix:
    """Effective chain for no-jump monitoring of right-moving wave packets.

    H_eff = (1/4) sum_i [(-t + Gamma) c+_i c_{i+1} - (t + Gamma) c+_{i+1} c_i
            - i Gamma (n_i + n_{i+1})],
    a special case of the Hatano-Nelson model; every site accumulates
    -i Gamma / 4 per adjacent bond.  At Gamma = t the rightward hopping
    coefficient vanishes and transport is unidirectional.
    """
    if L < 2:
        raise SizeError(f"measurement chain needs L >= 2, got {L}")
    if Gamma < 0:
        raise ValueError(f"Gamma must be >= 0, got {Gamma}")
    # each site's adjacent bonds: two, or one at either end of an open chain
    bonds = np.full(L, 2.0)
    if bc == "open":
        bonds[[0, -1]] = 1.0
    return _cell_chain((-0.25j * Gamma * bonds)[:, None, None],
                       -(t + Gamma) / 4.0, (-t + Gamma) / 4.0, bc)


def build_heff_from_jumps(H: KernelMatrix, jumps, rates) -> KernelMatrix:
    """Quadratic effective kernel H - (i/2) sum_i Gamma_i L+_i L_i.

    Each jump is ('linear', u) for L = sum_j u_j c_j, contributing
    -(i/2) Gamma outer(u*, u), or ('projector', xi) for L = P = xi+ xi with
    unit-normalized xi, contributing -(i/2) Gamma outer(xi, xi*) since
    P+P = P.
    """
    if len(jumps) != len(rates):
        raise ValueError("jumps and rates must have equal length")
    K = H.entries.copy()
    for (kind, vec), rate in zip(jumps, rates):
        if rate < 0:
            raise ValueError(f"jump rate must be >= 0, got {rate}")
        v = np.asarray(vec, dtype=complex)
        if v.shape != (H.dim,):
            raise SizeError(f"jump vector length {v.shape} != kernel dim {H.dim}")
        if kind == "linear":
            K += -0.5j * rate * np.outer(v.conj(), v)
        elif kind == "projector":
            norm = np.linalg.norm(v)
            if abs(norm - 1.0) > PROJECTOR_NORM_TOL:
                raise NormalizationError(
                    f"projector vector norm {norm} != 1; idempotence would fail")
            K += -0.5j * rate * np.outer(v, v.conj())
        else:
            raise ValueError(f"unknown jump kind {kind!r}")
    return KernelMatrix(H.dim, K, H.bc, list(H.site_labels))


# ---------------------------------------------------------------------------
# momentum-space utilities
# ---------------------------------------------------------------------------

def bloch_momenta(n_cells: int) -> np.ndarray:
    """Momentum grid k_m = 2 pi m / N, m = 0 .. N-1."""
    return 2.0 * np.pi * np.arange(n_cells) / n_cells


def bloch_reduce(km: KernelMatrix, k) -> np.ndarray:
    """Bloch matrix H(k)_{ss'} = sum_x K[(x,s),(0,s')] exp(-i k x) of a
    periodic block kernel on its own site labels.

    ``k`` is one momentum or an array of them; the result has shape
    ``np.shape(k) + (ns, ns)``.  The sum runs over the kernel's cell blocks
    at the offsets 0, 1 and N - 1 whose block is nonzero only
    (``KernelMatrix._column_blocks``), so it reads no entry and its
    temporaries hold len(k) times at most three blocks.  Exact on the
    discrete grid k = 2 pi m / N for any integer m.

    Raises
    ------
    UnsupportedError
        If the kernel is not periodic, or not a block kernel on the labels
        it was built with (one given by its dense entries, a relabelled
        ring); ``pipeline.ground_state_system`` solves such a kernel dense.
    SizeError
        If the site labels do not tile a cell grid.
    """
    if km.bc != "periodic":
        raise UnsupportedError("Bloch reduction requires a periodic kernel")
    if not km._blocks_on(km.cell_sites):
        raise UnsupportedError("Bloch reduction requires a ring kept as its "
                               "cell blocks, on the labels it was built with")
    x, blocks = km._column_blocks()
    nonzero = blocks.any(axis=(1, 2))
    phase = np.exp((-1j * np.asarray(k))[..., None] * x[nonzero])
    return (blocks[nonzero] * phase[..., None, None]).sum(axis=-3)


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    """Family tag plus parameter map, deserializable from run configs.

    ``params`` names exactly ``FAMILIES[family][0]``; ``build`` passes them
    to the builder by keyword, and ``bc`` when the builder takes one (the
    others build open kernels only).  Size parameters (``L``, ``N_cells``,
    ``n``, ``Lx``, ``Ly``) must be integers or integral floats: a fractional
    size raises ``ValueError`` instead of being truncated.
    """

    family: str
    params: dict
    bc: str = "periodic"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown model family {self.family!r}; known: {sorted(FAMILIES)}")
        required, builder = FAMILIES[self.family]
        missing = [p for p in required if p not in self.params]
        if missing:
            raise ValueError(
                f"family {self.family!r} missing parameters {missing}")
        extra = [p for p in self.params if p not in required]
        if extra:
            raise ValueError(
                f"family {self.family!r} got unknown parameters {extra}")
        for name in _SIZE_PARAMS.intersection(self.params):
            value = self.params[name]
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Integral)
                    or isinstance(value, float) and value.is_integer()):
                raise ValueError(f"family {self.family!r} parameter {name!r} "
                                 f"must be an integer, got {value!r}")
        bcs = ("open", "periodic") if _takes_bc(builder) else ("open",)
        if self.bc not in bcs:
            raise UnsupportedError(f"family {self.family!r} takes only bc "
                                   f"{' or '.join(map(repr, bcs))}, got {self.bc!r}")

    def build(self) -> KernelMatrix:
        builder = FAMILIES[self.family][1]
        params = {name: int(value) if name in _SIZE_PARAMS else value
                  for name, value in self.params.items()}
        if _takes_bc(builder):
            params["bc"] = self.bc
        return builder(**params)


# lattice sizes; ModelSpec.build passes them through int()
_SIZE_PARAMS = frozenset({"L", "N_cells", "n", "Lx", "Ly"})


def _takes_bc(builder) -> bool:
    return "bc" in inspect.signature(builder).parameters


def _family(builder) -> tuple:
    """(parameter names, builder): the names are the builder's parameters
    other than ``bc`` and the keywords that a ``partial`` binds."""
    bound = getattr(builder, "keywords", {})
    return tuple(p for p in inspect.signature(builder).parameters
                 if p != "bc" and p not in bound), builder


# family name -> (parameter names, builder)
FAMILIES = {name: _family(builder) for name, builder in {
    "hatano_nelson": build_hatano_nelson,
    "uniform_chain": build_uniform_chain,
    "nh_ssh": build_nh_ssh_real,
    "quasicrystal_exp": partial(build_quasicrystal, variant="exp_phase", a=0.0),
    "quasicrystal_mobility": partial(build_quasicrystal,
                                     variant="mobility_edge"),
    "guo_chain": build_guo_chain,
    "guo_2d": build_guo_2d,
    "chern_ribbon": build_chern_ribbon,
    "eb_ssh": build_eb_ssh,
    "measurement_chain": build_measurement_heff,
}.items()}
