"""The N_T x N atom matrix of a dictionary's grid, a reference for tests.

No estimator builds it: SBCE and OMP work from the grid's DFT structure.
"""

import numpy as np

from thzest.arrays import SPEED_OF_LIGHT


def grid_atoms(dictionary) -> np.ndarray:
    """The N_T x grid_size atom matrix of the equispaced grid, as columns.

    The grid steps by 2/G in sine, so atom n = atom_0 * v**n elementwise
    with v_i = exp(2j phi i / G), phi = 2 pi d f_c / c0.  The powers v**n,
    n = 64 a + b, are the products of two small exponential tables, v**b
    (N_T x 64) and v**(64 a) (N_T x G/64), so the build costs N_T (64 + G/64)
    complex exponentials and one outer product written in place, not
    N_T G exponentials.  Column 0 is `dictionary.first_atom`, bit for bit.
    """
    config, grid_size = dictionary.config, dictionary.grid_size
    block = 64
    n_blocks = -(-grid_size // block)
    idx = np.arange(config.n_antennas)
    step = 4.0 * np.pi * config.element_spacing_m * config.carrier_freq_hz / (
        SPEED_OF_LIGHT * grid_size)
    fine = np.exp(1j * step * np.outer(idx, np.arange(block)))
    coarse = np.exp(1j * step * np.outer(idx, block * np.arange(n_blocks)))
    first = dictionary.first_atom[:, np.newaxis]
    atoms = np.empty((config.n_antennas, n_blocks, block), dtype=complex)
    np.multiply((first * coarse)[:, :, np.newaxis], fine[:, np.newaxis, :],
                out=atoms)
    return atoms.reshape(config.n_antennas, -1)[:, :grid_size]
