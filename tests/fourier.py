"""The tests' momentum-space referee: a kernel conjugated by the unitary
discrete Fourier matrix, whose solved position blocks are the momentum
blocks of the original kernel."""

import numpy as np
import scipy.linalg

from nhent import KernelMatrix, UnsupportedError


def momentum_transform(K: KernelMatrix) -> KernelMatrix:
    """Kernel conjugated by the unitary discrete Fourier matrix.

    Acts on the cell index with F[m, x] = exp(-2 pi i m x / N) / sqrt(N),
    leaving sublattice structure untouched; site labels become momentum
    labels, mode m * ns + s at sublattice s of k_m.  Applying it twice
    returns the original kernel up to inversion of the cell labels.
    """
    if K.bc != "periodic":
        raise UnsupportedError("momentum transform requires periodic bc")
    pos = K.cell_sites
    nc, ns = pos.shape
    F = scipy.linalg.dft(nc) / np.sqrt(nc)
    # permute to (cell, sub) blocks, transform cells, permute back
    perm = pos.reshape(-1)
    A = K.entries[np.ix_(perm, perm)].reshape(nc, ns, nc, ns)
    A = np.einsum("mx,xayb,ny->manb", F, A, F.conj(), optimize=True)
    labels = [(m, s) for m in range(nc) for s in range(ns)]
    return KernelMatrix(K.dim, A.reshape(nc * ns, nc * ns), "periodic",
                        labels)
