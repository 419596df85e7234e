"""Kernel-matrix builders for the lattice model zoo.

Every model is a quadratic (particle-number conserving) fermion Hamiltonian
H = sum_ij K[i, j] c^dag_i c_j, represented by its dense complex kernel K
plus site metadata.  Momentum-space forms use the Fourier convention

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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

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


@dataclass
class KernelMatrix:
    """Dense single-particle kernel with site metadata.

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
    """

    dim: int
    entries: np.ndarray
    bc: str
    site_labels: list = field(default_factory=list)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (self.dim, self.dim):
            raise SizeError(f"entries shape {self.entries.shape} != ({self.dim}, {self.dim})")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("kernel entries must be finite")
        if self.bc not in ("open", "periodic"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if not self.site_labels:
            self.site_labels = [(i, 0) for i in range(self.dim)]

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
    """Chain kernel in the cell-major layout; the only home of the wrap rule.

    ``onsite`` is an (n_cells, ns, ns) stack of diagonal blocks,
    ``hop_plus`` is K(d=+1) (hopping from cell x to x+1) and ``hop_minus``
    is K(d=-1): independent (ns, ns) blocks for non-Hermitian models, or
    scalars when ns = 1.
    """
    onsite = np.asarray(onsite, dtype=complex)
    nc, ns, _ = onsite.shape
    K = np.zeros((nc, ns, nc, ns), dtype=complex)
    x = np.arange(nc)
    K[x, :, x, :] = onsite
    K[x[1:], :, x[:-1], :] += hop_plus
    K[x[:-1], :, x[1:], :] += hop_minus
    if bc == "periodic":
        K[0, :, -1, :] += hop_plus
        K[-1, :, 0, :] += hop_minus
    labels = [(c, s) for c in range(nc) for s in range(ns)]
    return KernelMatrix(nc * ns, K.reshape(nc * ns, nc * ns), bc, labels)


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

    alpha is a rational approximant p/q; under periodic bc q must equal L
    so the potential is exactly commensurate with the ring.
    """
    if L < 2:
        raise SizeError(f"quasicrystal chain needs L >= 2, got {L}")
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
    # the unit-hopping chain's row sums count each site's adjacent bonds
    bonds = _cell_chain(np.zeros((L, 1, 1)), 1.0, 1.0, bc).entries.real.sum(axis=1)
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
    periodic, cell-translation-invariant kernel.

    ``k`` is one momentum or an array of them; the result has shape
    ``np.shape(k) + (ns, ns)``, and the blocks are gathered once for all k.
    The sum runs over the cell offsets x whose block is nonzero only (three
    on a nearest-neighbour chain), so its temporaries hold len(k) times that
    many blocks, not len(k) * N; an all-zero kernel gives zero blocks.
    Exact on the discrete grid k = 2 pi m / N for any integer m.
    """
    if km.bc != "periodic":
        raise ValueError("Bloch reduction requires a periodic kernel")
    pos = km.cell_sites
    # blocks[x, s, s'] = K[(x, s), (0, s')]
    blocks = km.entries[pos[:, :, None], pos[0]]
    x = np.flatnonzero(blocks.any(axis=(1, 2)))
    phase = np.exp((-1j * np.asarray(k))[..., None] * x)
    return (blocks[x] * phase[..., None, None]).sum(axis=-3)


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    """Family tag plus parameter map, deserializable from run configs.

    Size parameters (``L``, ``N_cells``, ``n``, ``Lx``, ``Ly``) must be
    integers or integral floats: a fractional size raises ``ValueError``
    instead of being truncated.
    """

    family: str
    params: dict
    bc: str = "periodic"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown model family {self.family!r}; known: {sorted(FAMILIES)}")
        required, _ = FAMILIES[self.family]
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
        # the ribbon's open axis has no periodic form
        bcs = ("open",) if self.family == "chern_ribbon" else ("open", "periodic")
        if self.bc not in bcs:
            raise UnsupportedError(f"family {self.family!r} takes only bc "
                                   f"{' or '.join(map(repr, bcs))}, got {self.bc!r}")

    def build(self) -> KernelMatrix:
        return FAMILIES[self.family][1](self)


# lattice sizes; the adapters below pass them through int()
_SIZE_PARAMS = frozenset({"L", "N_cells", "n", "Lx", "Ly"})


def _spec_alpha(value) -> Fraction:
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return Fraction(int(value[0]), int(value[1]))
    return Fraction(value)


# family name -> (required parameter names, builder adapter)
FAMILIES = {
    "hatano_nelson": (
        ("L", "t", "alpha"),
        lambda s: build_hatano_nelson(int(s.params["L"]), s.params["t"],
                                      s.params["alpha"], s.bc)),
    "uniform_chain": (
        ("L", "t"),
        lambda s: build_uniform_chain(int(s.params["L"]), s.params["t"], s.bc)),
    "nh_ssh": (
        ("N_cells", "omega", "upsilon", "u"),
        lambda s: build_nh_ssh_real(int(s.params["N_cells"]), s.params["omega"],
                                    s.params["upsilon"], s.params["u"], s.bc)),
    "quasicrystal_exp": (
        ("L", "J_L", "J_R", "V", "alpha"),
        lambda s: build_quasicrystal(int(s.params["L"]), s.params["J_L"],
                                     s.params["J_R"], s.params["V"],
                                     _spec_alpha(s.params["alpha"]),
                                     "exp_phase", 0.0, s.bc)),
    "quasicrystal_mobility": (
        ("L", "J_L", "J_R", "V", "alpha", "a"),
        lambda s: build_quasicrystal(int(s.params["L"]), s.params["J_L"],
                                     s.params["J_R"], s.params["V"],
                                     _spec_alpha(s.params["alpha"]),
                                     "mobility_edge", s.params["a"], s.bc)),
    "guo_chain": (
        ("L", "n", "t", "gamma"),
        lambda s: build_guo_chain(int(s.params["L"]), int(s.params["n"]),
                                  s.params["t"], s.params["gamma"], s.bc)),
    "guo_2d": (
        ("Lx", "Ly", "gamma"),
        lambda s: build_guo_2d(int(s.params["Lx"]), int(s.params["Ly"]),
                               s.params["gamma"], s.bc)),
    "chern_ribbon": (
        ("L", "k_perp", "t", "m", "gamma", "cut_axis"),
        lambda s: build_chern_ribbon(int(s.params["L"]), s.params["k_perp"],
                                     s.params["t"], s.params["m"],
                                     s.params["gamma"], s.params["cut_axis"])),
    "eb_ssh": (
        ("L", "nu", "w", "gamma0"),
        lambda s: build_eb_ssh(int(s.params["L"]), s.params["nu"],
                               s.params["w"], s.params["gamma0"], s.bc)),
    "measurement_chain": (
        ("L", "t", "Gamma"),
        lambda s: build_measurement_heff(int(s.params["L"]), s.params["t"],
                                         s.params["Gamma"], s.bc)),
}
