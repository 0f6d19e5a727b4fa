"""Passive crossbar arrays: network solve, read/write schemes, sneak paths.

An array is a grid of independent device states sharing one conduction
parameter set and one temperature, t_kelvin. Crossbar stores each
DeviceState field as one read-only n_rows x n_cols ndarray of the
field's annotated type, and checks the fields and the
temperature once, as array checks, when the array is built; state(r, c)
returns one cell as a DeviceState. Every read, solve and write runs at
the array's temperature. Rows and columns are ideal wires (no line
resistance); every line is either driven to a potential or left floating.
Floating lines settle where Kirchhoff's current law balances the
nonlinear device currents, which a damped Newton iteration solves to
machine precision.

The array read kernel. A read of many cells is one evaluation on arrays.
Each call of solve_network, mvm_read, write_v_half, inference.mvm_charge
or inference.mvm_error_mc builds the state-multiplier grid g[r, c] in one
broadcast call of conduction.state_multiplier (nothing is cached between
calls) and composes conduction's private channel terms on the whole
device-voltage grid. The reads at fixed potentials call conduction's
_array_current, the one unchecked array read, after checking the bias
once. It takes cell arrays (w, d2d_log10) of any shape, so a trial of
mvm_error_mc reads its two planes as one stacked array. solve_network
builds, once per call, everything a Newton point repeats: the free-line
index arrays, the potential, grid and residual buffers, one Jacobian
whose diagonal is a strided view, and ga * ohm_c. Each point writes its
iterate into the potential buffer and evaluates the grid
rv[:, None] - cv[None, :] op for op as conduction's _bias_terms and
_total do; each iteration builds the conductance grid from the accepted
point's terms for its Jacobian only. The results are bit-identical to
evaluating each cell with the scalar current_total: state_multiplier
calls the C library's pow() per element, as float ** does, the terms keep
the kernels' order of operations, and line currents, Jacobian diagonals
and charges are summed left to right (_line_sums, _sums_into) instead of
by numpy's pairwise reduction. The MVM reads share one read-regime
check, _check_mvm_bias.

build_crossbar takes the cells' offsets from device's d2d draw, cell
(r, c) taking child r * n_cols + c. with_weights, write_v_half and
inference.program_write_verify return a new array with the changed
weights; write_v_half pulses only the n_rows + n_cols - 1 biased cells, as
one one-pulse device._trains train each; the law leaves a cell at 0 V
unchanged without a draw, as zero lies between the onsets. Device's write-verify trim is the
one read of an array that does not go through _array_current.

The device nonlinearity is what makes select-free operation possible:
sneak-path devices sit at a fraction of the read voltage where the
trap-emission channel is exponentially weaker, so current margins are far
larger than the Ohmic voltage-divider picture suggests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import get_type_hints

import numpy as np

from .conduction import (ConductionParams, T_REF, _array_current, _coeffs,
                         _conductance, check_bias, check_temperature,
                         state_multiplier)
from .device import (DeviceState, PulseSpec, UpdateModel, _check_cells,
                     _d2d_offsets, _trains)

__all__ = [
    "Crossbar",
    "BiasScheme",
    "NetworkSolution",
    "WriteReport",
    "SneakReport",
    "build_crossbar",
    "solve_network",
    "mvm_read",
    "write_v_half",
    "sneak_margin",
]

NEWTON_TOL = 1e-12      # KCL residual, A
NEWTON_MAX_ITER = 200
MAX_SOLVE_DIM = 64      # dense Newton solve cap per side
MVM_V_LIMIT = 0.3       # read-regime bias range, V


def _check_solve_lines(n: int) -> None:
    """The line count per side a dense network solve accepts."""
    if not 1 <= n <= MAX_SOLVE_DIM:
        raise ValueError(f"a dense network solve takes 1 to {MAX_SOLVE_DIM} "
                         f"lines per side, got {n}")


def _check_mvm_bias(v) -> None:
    """Keep MVM read biases (scalar or array) in the read regime."""
    if np.any(np.abs(v) > MVM_V_LIMIT):
        raise ValueError(f"read inputs must satisfy |v| <= {MVM_V_LIMIT} V")
    check_bias(v)


# per-cell storage fields and their dtypes, in DeviceState's order
_CELLS = tuple(get_type_hints(DeviceState).items())


@dataclass(frozen=True, eq=False)
class Crossbar:
    """Array of device states over shared conduction parameters at one
    operating temperature.

    Each cell field of DeviceState, w and d2d_log10, is stored as one
    read-only n_rows x n_cols array. The arrays are copied and checked
    once, here, with DeviceState's limits; state(r, c) returns one cell as
    a DeviceState.
    """

    w: np.ndarray
    d2d_log10: np.ndarray
    params: ConductionParams
    t_kelvin: float = T_REF

    def __post_init__(self):
        shape = np.shape(self.w)
        if len(shape) != 2 or 0 in shape:
            raise ValueError("crossbar must be a 2-D grid with at least one "
                             f"row and column, got shape {shape}")
        for name, dtype in _CELLS:
            a = np.array(getattr(self, name), dtype=dtype)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, "
                                 f"got {a.shape}")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        _check_cells(self.w, self.d2d_log10)
        check_temperature(self.t_kelvin)

    def __eq__(self, other):
        if not isinstance(other, Crossbar):
            return NotImplemented
        return (self.params == other.params
                and self.t_kelvin == other.t_kelvin
                and all(np.array_equal(getattr(self, name),
                                       getattr(other, name))
                        for name, _ in _CELLS))

    @property
    def n_rows(self) -> int:
        return self.w.shape[0]

    @property
    def n_cols(self) -> int:
        return self.w.shape[1]

    def state(self, r: int, c: int) -> DeviceState:
        """Cell (r, c) as a single-device DeviceState."""
        return DeviceState(**{name: dtype(getattr(self, name)[r, c])
                              for name, dtype in _CELLS})

    def weights(self) -> np.ndarray:
        return self.w.copy()

    def multipliers(self) -> np.ndarray:
        """State-multiplier grid g[r, c], computed afresh on every call
        by one broadcast state_multiplier call."""
        return state_multiplier(self.params, self.w, self.d2d_log10)

    def with_weights(self, w) -> "Crossbar":
        """New array with the given w matrix, keeping each device's
        variation offset."""
        w = np.asarray(w, dtype=float)
        if w.shape != self.w.shape:
            raise ValueError(f"weight matrix must have shape "
                             f"{self.w.shape}, got {w.shape}")
        return replace(self, w=w)


def build_crossbar(n_rows: int, n_cols: int, p: ConductionParams,
                   sigma_d2d: float = 0.0, seed=0,
                   t_kelvin: float = T_REF) -> Crossbar:
    """Array of pristine devices with independent variation draws.

    Cell (r, c) takes the variation offset of child r * n_cols + c of the
    seed's SeedSequence spawn, so the array is reproducible and individual
    cells are statistically independent; the offsets come from device's
    d2d draw. The seed is an int or a SeedSequence. A SeedSequence is read
    from its current spawn count, which is not advanced, so two builds
    from the same object give the same array.
    """
    if n_rows < 1 or n_cols < 1:
        raise ValueError("array dimensions must be positive")
    offsets = _d2d_offsets(sigma_d2d, [seed], n_rows * n_cols)
    return Crossbar(w=np.zeros((n_rows, n_cols)),
                    d2d_log10=offsets.reshape(n_rows, n_cols),
                    params=p, t_kelvin=t_kelvin)


def _check_cell(n_rows: int, n_cols: int, row: int, col: int) -> None:
    """The selected cell of a bias scheme lies inside the array."""
    if not (0 <= row < n_rows and 0 <= col < n_cols):
        raise ValueError("selected cell is outside the array")


@dataclass(frozen=True)
class BiasScheme:
    """Line potentials; None marks a floating line."""

    rows: tuple
    cols: tuple

    @staticmethod
    def read_select(n_rows: int, n_cols: int, row: int, col: int,
                    v_read: float) -> "BiasScheme":
        """Selected row driven, selected column grounded, all else floating."""
        _check_cell(n_rows, n_cols, row, col)
        rows = tuple(v_read if r == row else None for r in range(n_rows))
        cols = tuple(0.0 if c == col else None for c in range(n_cols))
        return BiasScheme(rows=rows, cols=cols)

    @staticmethod
    def v_half_write(n_rows: int, n_cols: int, row: int, col: int,
                     v_write: float) -> "BiasScheme":
        """V/2 scheme: full bias on the selected cell, half bias on every
        half-selected cell, zero elsewhere."""
        _check_cell(n_rows, n_cols, row, col)
        rows = tuple(v_write if r == row else 0.5 * v_write for r in range(n_rows))
        cols = tuple(0.0 if c == col else 0.5 * v_write for c in range(n_cols))
        return BiasScheme(rows=rows, cols=cols)


@dataclass(frozen=True)
class NetworkSolution:
    """Converged network state: line potentials, per-device operating
    points, and net per-line currents (row_i flows from each row line into
    its devices, col_i from the devices into each column line; both vanish
    on floating lines)."""

    row_v: np.ndarray
    col_v: np.ndarray
    device_v: np.ndarray
    device_i: np.ndarray
    row_i: np.ndarray
    col_i: np.ndarray
    iterations: int
    residual: float


def _line_sums(a: np.ndarray, axis: int) -> np.ndarray:
    """Left-to-right sums along one axis, bit-identical to Python's
    sequential float sum over the same elements; np.sum reduces pairwise
    and can differ in the last bits. Adding 0.0 turns an all-(-0.0) sum
    into 0.0, as a sum started from zero does."""
    return a.cumsum(axis=axis).take(-1, axis=axis) + 0.0


def _sums_into(grid: np.ndarray, running: np.ndarray,
               col_sums: np.ndarray) -> None:
    """Left-to-right sums of a C-contiguous 2-D grid along both axes,
    written into buffers: running[:, -1] holds the row sums (a running
    sum along each row), col_sums the column sums (np.add.reduce over
    axis 0 adds whole rows in order, where a reduction along the last
    axis would go pairwise). Each sum starts from its first element, so
    an all-(-0.0) line gives -0.0 where Python's sum gives 0.0."""
    np.add.accumulate(grid, axis=1, out=running)
    if grid.shape[1] > 1:
        np.add.reduce(grid, axis=0, out=col_sums)
    else:  # numpy reduces a lone column pairwise, as it does a 1-D array
        col_sums[:] = np.add.accumulate(grid, axis=0)[-1]


def solve_network(xbar: Crossbar, scheme: BiasScheme,
                  tol: float = NEWTON_TOL) -> NetworkSolution:
    """Solve floating-line potentials by damped Newton on the KCL system.

    The residual of a floating line is the net device current into it;
    its derivative with respect to any line potential is a sum of strictly
    positive differential conductances, so the Jacobian is well
    conditioned. Steps are halved until the residual norm decreases; if
    40 halvings do not make it decrease, or a trial iterate is not finite,
    RuntimeError is raised.

    The driven potentials are checked once per call; the temperature was
    checked when the array was built. Each call lays out, once, the
    free-line indexes, the potential and grid buffers, the Jacobian and
    its diagonal view, and the product ga * ohm_c. Each Newton point then
    writes its iterate into the potential buffer, evaluates the channel
    terms of the device-voltage grid into the grid buffers, and takes the
    residual from the currents' left-to-right line sums; the buffers end
    up holding the accepted point, which the solution returns. Only an
    accepted point that has not converged builds a Jacobian: its
    conductance grid comes from that point's terms, and its diagonals are
    the grid's line sums.
    """
    nr, nc = xbar.n_rows, xbar.n_cols
    _check_solve_lines(nr)
    _check_solve_lines(nc)
    if len(scheme.rows) != nr or len(scheme.cols) != nc:
        raise ValueError("bias scheme shape does not match the array")
    potentials = list(scheme.rows) + list(scheme.cols)
    driven = [float(v) for v in potentials if v is not None]
    if not driven:
        raise ValueError("at least one line must be driven")
    check_bias(driven)
    # lines holds the row potentials, then the column ones; rv and cv view
    # it, and each point writes its iterate into the floating lines
    lines = np.array([0.0 if v is None else float(v) for v in potentials])
    rv, cv = lines[:nr], lines[nr:]
    rv_col = rv[:, None]
    free = np.array([k for k, v in enumerate(potentials) if v is None],
                    dtype=np.intp)
    n_free = free.size
    n_fr = sum(v is None for v in scheme.rows)
    fr, fc = free[:n_fr], free[n_fr:] - nr
    ohm_c, pf_c, theta = _coeffs(xbar.params, xbar.t_kelvin)
    ga = xbar.multipliers() * xbar.params.area
    ga_ohm = ga * ohm_c  # _total's ga * ohm_c
    x = np.full(n_free, float(np.add.reduce(driven) / len(driven)))
    # per-solve buffers: every point overwrites them, so after the loop
    # they hold the accepted point; the solution keeps dv and di alone
    dv, di = np.empty((2, nr, nc))
    mag, rt, sign, e, pf, ga_sign, running = np.empty((7, nr, nc))
    terms = (sign, mag, rt, e)
    col_sums = np.empty(nc)
    f = np.empty(n_free)
    f_rows, f_cols = f[:n_fr], f[n_fr:]
    # flat indexes into a grid: the free rows' running-sum ends, and the
    # free-row x free-column block and its transpose. Every take uses
    # mode="clip": the indexes are in range, and the default "raise"
    # copies through a buffer.
    row_ends = fr * nc + (nc - 1)
    cross = fr[:, None] * nc + fc
    cross_t = cross.T.copy()
    # the Jacobian: its diagonal (+ row sums, - column sums) is a strided
    # view, and only it and the two cross blocks are ever written
    jac = np.zeros((n_free, n_free))
    diag = jac.reshape(-1)[::n_free + 1]
    diag_rows, diag_cols = diag[:n_fr], diag[n_fr:]
    jac_rc, jac_cr = jac[:n_fr, n_fr:], jac[n_fr:, :n_fr]

    def point(xv):
        """The residual norm at one iterate, with the potentials, device
        voltages, bias terms, currents and residual left in the
        buffers. The terms and currents are conduction._bias_terms and
        _total op for op."""
        lines[free] = xv
        np.subtract(rv_col, cv, out=dv)
        np.abs(dv, out=mag)
        np.sqrt(mag, out=rt)
        np.sign(dv, out=sign)
        np.exp(np.multiply(theta, rt, out=e), out=e)
        np.multiply(ga_ohm, dv, out=di)
        np.multiply(pf_c, mag, out=pf)
        np.multiply(pf, e, out=pf)
        np.multiply(ga, sign, out=ga_sign)
        np.multiply(ga_sign, pf, out=pf)
        np.add(di, pf, out=di)
        _sums_into(di, running, col_sums)
        running.take(row_ends, out=f_rows, mode="clip")
        col_sums.take(fc, out=f_cols, mode="clip")
        np.add(f, 0.0, out=f)  # an all-(-0.0) line sums to 0.0, as from zero
        return np.abs(f).max(initial=0.0)

    def jacobian():
        """KCL Jacobian at the accepted point, from its bias terms. The
        conductances are positive or +0.0, so their line sums need no
        +0.0."""
        g = _conductance(ga, terms, ohm_c, pf_c, theta)
        _sums_into(g, running, col_sums)
        running.take(row_ends, out=diag_rows, mode="clip")
        np.negative(col_sums, out=col_sums)
        col_sums.take(fc, out=diag_cols, mode="clip")
        g.take(cross_t, out=jac_cr, mode="clip")
        # negated whole, not as the block: numpy 2.4.6 negates a (k, 1)
        # view of an 8 x 8 Jacobian in place from the wrong elements
        np.negative(g, out=g)
        g.take(cross, out=jac_rc, mode="clip")
        return jac

    norm = point(x)
    it = 0
    while norm > tol:
        if it >= NEWTON_MAX_ITER:
            raise RuntimeError(
                f"network solve did not converge in {NEWTON_MAX_ITER} iterations "
                f"(residual {norm:.3g} A)")
        try:
            step = np.linalg.solve(jacobian(), -f)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular network Jacobian: {exc}") from exc
        norm0 = norm
        lam = 1.0
        for _ in range(40):
            x_new = x + lam * step
            if not np.isfinite(x_new).all():
                raise RuntimeError(
                    f"network solve produced a non-finite iterate at "
                    f"iteration {it + 1}")
            norm = point(x_new)
            if norm < norm0:
                break
            lam *= 0.5
        else:
            raise RuntimeError(
                f"network solve line search failed at iteration {it + 1}: "
                f"no step reduced the residual {norm0:.3g} A")
        x = x_new
        it += 1
    return NetworkSolution(row_v=rv, col_v=cv, device_v=dv, device_i=di,
                           row_i=di.sum(axis=1), col_i=di.sum(axis=0),
                           iterations=it, residual=float(norm))


def mvm_read(xbar: Crossbar, v_in) -> np.ndarray:
    """Column currents with rows driven at v_in and columns at virtual
    ground. This is the analog matrix-vector product primitive.

    Inputs are restricted to the read regime (|v| <= MVM_V_LIMIT) so the
    encoding never crosses a write onset.
    """
    v_in = np.asarray(v_in, dtype=float)
    if v_in.shape != (xbar.n_rows,):
        raise ValueError(f"v_in must have shape ({xbar.n_rows},), got {v_in.shape}")
    _check_mvm_bias(v_in)
    return _line_sums(_array_current(xbar.params, xbar.t_kelvin, xbar.w,
                                     xbar.d2d_log10, v_in[:, None]), axis=0)


@dataclass(frozen=True)
class WriteReport:
    """Outcome of one selective write."""

    delta_w_selected: float
    disturbs: tuple
    max_disturb: float
    energy_joules: float


def write_v_half(xbar: Crossbar, row: int, col: int, pulse: PulseSpec,
                 m: UpdateModel, rng: np.random.Generator | None = None
                 ) -> tuple[Crossbar, WriteReport]:
    """Write one cell under the V/2 bias scheme and account for disturbs.

    Half-selected cells see v_write/2; they only move when that still
    crosses an update onset. Every biased cell takes an amplitude_ramp
    pulse. Only the n_rows + n_cols - 1 cells on the selected row and
    column are biased; they are pulsed in row-major order on the shared
    generator, and every other cell sees 0 V and keeps its state. The
    energy is the rectangular-pulse sum |i| |v| t_width over every biased
    cell at its pre-pulse state, summed left to right in row-major order:
    the currents come from one _array_current call on the whole
    device-voltage grid, where the unbiased cells add exact zeros.
    """
    t_width = pulse.t_width
    scheme = BiasScheme.v_half_write(xbar.n_rows, xbar.n_cols, row, col,
                                     pulse.v_write)
    v = np.subtract.outer(scheme.rows, scheme.cols)
    i = _array_current(xbar.params, xbar.t_kelvin, xbar.w, xbar.d2d_log10, v)
    energy = float(_line_sums((np.abs(i) * np.abs(v) * t_width).ravel(), 0))
    cells = [r * xbar.n_cols + c for r in range(xbar.n_rows)
             for c in (range(xbar.n_cols) if r == row else (col,))]
    at = np.array(cells)  # the biased cells' flat indices, row-major
    w0, vs = xbar.w.take(at).tolist(), v.take(at).tolist()
    specs = {x: (PulseSpec(x, t_width),) for x in set(vs)}
    w1 = [w for [w] in _trains(m, "amplitude_ramp", rng,
                               zip(w0, map(specs.__getitem__, vs)))]
    w = xbar.w.copy()
    w.put(at, w1)
    dw = [b - a for a, b in zip(w0, w1)]
    # the selected cell follows one cell of each row above it
    disturbs = tuple((*divmod(k, xbar.n_cols), d) for k, d in zip(cells, dw)
                     if d != 0.0 and k != cells[row + col])
    return replace(xbar, w=w), WriteReport(
        delta_w_selected=dw[row + col], disturbs=disturbs,
        max_disturb=max((abs(d[2]) for d in disturbs), default=0.0),
        energy_joules=energy)


@dataclass(frozen=True)
class SneakReport:
    """Selected-versus-sneak operating point comparison. margin is
    i_selected / i_sneak_worst; voltage_margin is the same ratio for the
    device voltages, kept as a diagnostic."""

    i_selected: float
    i_sneak_worst: float
    margin: float
    voltage_margin: float
    solution: NetworkSolution


def sneak_margin(xbar: Crossbar, row: int, col: int,
                 v_read: float) -> SneakReport:
    """Margins of a floating-line selected read.

    The selected cell is read with every unselected line floating;
    i_sneak_worst is the largest current through any unselected cell at
    the solved operating point. A single-row (or single-column) array has
    no closed sneak loop, so its unselected cells carry nothing and the
    margin is infinite.
    """
    if v_read == 0:
        raise ValueError("v_read must be nonzero")
    scheme = BiasScheme.read_select(xbar.n_rows, xbar.n_cols, row, col, v_read)
    sol = solve_network(xbar, scheme)
    v_sel = abs(float(sol.device_v[row, col]))
    i_sel = abs(float(sol.device_i[row, col]))
    if xbar.n_rows == 1 or xbar.n_cols == 1:
        # no closed sneak loop exists; whatever the solver left on the
        # unselected cells is residual-level noise, not a sneak current
        v_sneak = i_sneak = 0.0
    else:
        # the largest |v| and |i| over the unselected cells: zeroing the
        # selected cell's entry leaves the maximum of the others, which
        # are all >= 0
        v_abs, i_abs = np.abs(sol.device_v), np.abs(sol.device_i)
        v_abs[row, col] = i_abs[row, col] = 0.0
        v_sneak, i_sneak = float(v_abs.max()), float(i_abs.max())
    v_margin = v_sel / v_sneak if v_sneak > 0 else math.inf
    i_margin = i_sel / i_sneak if i_sneak > 0 else math.inf
    return SneakReport(i_selected=i_sel, i_sneak_worst=i_sneak,
                       margin=i_margin, voltage_margin=v_margin,
                       solution=sol)
