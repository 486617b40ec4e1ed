"""Averaging operators on finite metric measure spaces.

A finite space is a positive mass per point plus one table of row
neighbours; its points are their indices 0 .. n-1, and any other point
(a negative or too large index, a float, a string) is refused with
InputError.  With cols None the table is full, the n x n distance matrix
dist.  A cut table is CSR without padding: row i's entries offsets[i] ..
offsets[i+1]-1 are every point cols[e] at distance dist[e] <= the space's
cut radius, columns ascending, its zero diagonal included; radii above
the cut are refused.  Balls use the open convention B_r(x) = {y : d(x,y) < r},
so every center belongs to its own ball and all ball masses are positive.
Radii that coincide exactly with a pairwise distance sit on a measure
discontinuity; callers should perturb such radii (see
``is_collision_radius``).

Scalar fields are plain one-dimensional float arrays indexed in point
order.  ``average``, ``adjoint_average`` and ``sym_r_laplacian`` (and the
r-laplacian wrappers) also take a stack of k fields, shape (k, n), in one
pass; a stacked row has the bits of the single call.  All operations are
pure functions; summations run in fixed index-ascending order so results
do not depend on evaluation layout or on the stack.

Every operator divides by the ball masses mu(B_r(x)).  A space keeps one
ball object (``_Balls``) for the last radius used: it computes the masses
once and owns the only block pass, ``_Balls.row_sums``, over row blocks of
a full table (``_kernels.row_blocks``) or runs of whole rows of a cut one
(``_kernels.row_runs``).  Below a cut table's cut the ball object sums
over its own table, the entries < r of the last ball's table (a shrinking
radius) or the space's; a full table is never compacted.  The ball
masses, A_r and A_r* are one ball sum, ``_Balls.sums``.  The mean value
kernel k_r has one definition, ``_kernel_rows``: the requested rows as
CSR on the ball pattern, read off the ball's table; ``kernel_matrix`` is
its dense form, and ``ball`` one row's pattern.

Text input has one edge, next to ``InputError``: ``opened`` (path or file
object), ``content_lines`` (no blank or '#' lines), ``line_fields`` (one
line's fields) and ``malformed`` (spec errors); every reader raises
InputError naming the offending line or spec.
"""

from __future__ import annotations

import contextlib
import io
import logging
import math
import os
import resource

import numpy as np
from scipy import sparse

from ._kernels import row_blocks, row_runs

logger = logging.getLogger("amvlab.mmspace")


class InputError(ValueError):
    """Invalid input: an operator argument (unknown point, bad radius,
    shape), a malformed spec or a malformed line of a text file."""


@contextlib.contextmanager
def malformed(kind: str, spec: str):
    """Report a ValueError raised while parsing spec as an InputError naming it."""
    try:
        yield
    except ValueError as exc:
        raise InputError(f"malformed {kind} spec {spec!r}: {exc}") from None


def check_memory(size: int, owner: str, table: str) -> None:
    """Refuse a table of size bytes, before it is allocated, above the smaller of
    physical memory and the soft address-space limit (RLIMIT_AS)."""
    budget, limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY and soft < budget:
        budget, limit = soft, "the address-space limit (RLIMIT_AS)"
    if size > budget:
        raise InputError(f"{owner} needs a {size / 1e9:.1f} GB {table}, "
                         f"more than the {budget / 1e9:.1f} GB of {limit}")


def opened(path_or_file, mode: str = "r"):
    """Context for a text file: opens (and closes) a path, passes a file object through."""
    if hasattr(path_or_file, "write" if "w" in mode else "read"):
        return contextlib.nullcontext(path_or_file)
    return open(path_or_file, mode)


def content_lines(text: str) -> list[str]:
    """The stripped lines of text, without blank lines and '#' comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def line_fields(line: str, types, grammar: str) -> list:
    """A line's fields converted by types, one each, or an InputError quoting grammar."""
    tok = line.split()
    with contextlib.suppress(ValueError):
        if len(tok) == len(types):
            return [t(v) for t, v in zip(types, tok)]
    raise InputError(f"{grammar}, got {line!r}")


class FiniteMMSpace:
    """Finite point set with symmetric distances and point masses.

    Points are their indices 0 .. n-1, the order of mass.  dist is the full
    n x n distance matrix, or with cols, offsets and cut a cut table in CSR
    (see the module docstring): entry e of row i holds the point cols[e]
    with d(i, cols[e]) = dist[e] <= cut.  The triangle inequality is
    deliberately not validated: none of the averaging operators use it,
    and the identity tests cover arbitrary symmetric "distances".  A space
    is immutable once built.
    """

    def __init__(self, dist, mass, cols=None, offsets=None, cut=None):
        dist = np.asarray(dist, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        if cols is None and (dist.ndim != 2 or dist.shape[0] != dist.shape[1]):
            raise InputError("dist must be a square matrix")
        if mass.ndim != 1 or cols is None and mass.size != dist.shape[0]:
            raise InputError("mass must be a vector matching the point count")
        if not np.all(np.isfinite(mass)):
            raise InputError("dist and mass must be finite")
        if cols is None:
            _check_matrix(dist)
            self.cut = math.inf
        else:
            cols, offsets = np.asarray(cols), np.asarray(offsets)
            if cut is None or not (0 < cut < math.inf):
                raise InputError(f"a cut table needs a positive finite cut radius, got {cut!r}")
            self.cut = float(cut)
            _check_table(dist, cols, offsets, mass.size, self.cut)
        if np.any(mass <= 0):
            raise InputError("mass must be positive")
        self.dist, self.cols, self.offsets, self.mass, self.n = dist, cols, offsets, mass, mass.size
        self._last_balls = None

    def index_of(self, point) -> int:
        """The index of point, which must be an integer (numpy integers too) in [0, n)."""
        if isinstance(point, (int, np.integer)) and 0 <= point < self.n:
            return int(point)
        raise InputError(f"unknown point {point!r}: points are the indices 0 .. {self.n - 1}")

    def total_mass(self) -> float:
        return float(np.sum(self.mass))

    def radius(self, r) -> float:
        """r as a radius of this space: positive, finite and not above the cut."""
        r = check_radius(r)
        if r > self.cut:
            raise InputError(f"radius {r!r} is above the cut {self.cut!r} of the space's neighbour table")
        return r

    def as_matrix(self, table, fill=0.0) -> np.ndarray:
        """Table entries spread over an n x n matrix, fill where the table
        holds no entry; a full table's entries are returned as they are."""
        if self.cols is None:
            return table
        out = np.full((self.n, self.n), fill)
        out[np.repeat(np.arange(self.n), np.diff(self.offsets)), self.cols] = table
        return out

    def _balls(self, r) -> _Balls:
        """The ball object at radius r; the last one is kept for reuse, and a
        smaller radius compacts its table from the last one's."""
        r = self.radius(r)
        balls = self._last_balls
        if balls is None or balls.r != r:
            source = balls if balls is not None and r < balls.r else self
            balls = self._last_balls = _Balls(self, r, source)
        return balls


def _check_values(dist) -> float:
    """Refuse non-finite or negative distances; the largest distance."""
    # reductions, not elementwise tests: no n x n bool temporary
    lo, hi = dist.min(initial=0.0), dist.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InputError("dist and mass must be finite")
    if lo < 0:
        raise InputError("dist must be nonnegative")
    return hi


def _check_matrix(dist) -> None:
    """Refuse a full table that is not a distance matrix."""
    _check_values(dist)
    if np.any(np.diag(dist) != 0):
        raise InputError("dist must have a zero diagonal")
    # cache-sized tiles of the upper triangle vs their mirrors (dist.T strides columns)
    n, t = dist.shape[0], 64
    if not all(
        np.array_equal(dist[i : i + t, j : j + t], dist[j : j + t, i : i + t].T)
        for i in range(0, n, t) for j in range(i, n, t)
    ):
        raise InputError("dist must be symmetric")


def _check_table(dist, cols, offsets, n: int, cut: float) -> None:
    """Refuse a cut table of n points that breaks the CSR layout of
    FiniteMMSpace; the arrays are checked as they are, not copied."""
    if dist.ndim != 1 or cols.shape != dist.shape or not np.issubdtype(cols.dtype, np.integer):
        raise InputError("a cut table's dist and cols must be entry vectors of one length, cols integer")
    if (offsets.shape != (n + 1,) or not np.issubdtype(offsets.dtype, np.integer) or offsets[0] != 0
            or offsets[-1] != dist.size or np.any(np.diff(offsets) < 0)):
        raise InputError("row offsets must be n + 1 integers rising from 0 to the entry count")
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise InputError("cols must hold point indices")
    if _check_values(dist) > cut:
        raise InputError(f"a table cut at {cut!r} holds no larger distance")
    # offsets as narrow as the columns allow, or scipy widens int32 columns to int64 copies
    indptr = offsets.astype(sparse.get_index_dtype((cols,), maxval=dist.size))
    table = sparse.csr_array((dist, cols, indptr), shape=(n, n))
    if not table.has_canonical_format:
        raise InputError("table columns must ascend along each row")
    diag = cols == np.repeat(np.arange(n), np.diff(offsets))  # at most one per row, columns ascending
    if np.count_nonzero(diag) != n or np.any(dist[diag] != 0):
        raise InputError("dist must have a zero diagonal")
    # a symmetric table is its own transpose, entry for entry
    mirror = table.T.tocsr()
    if not all(np.array_equal(getattr(mirror, a), getattr(table, a)) for a in ("indptr", "indices", "data")):
        raise InputError("dist must be symmetric")


def as_field(space: FiniteMMSpace, values, stack: bool = False) -> np.ndarray:
    """values as a finite field of space, shape (n,); with stack also a
    stack of k >= 1 fields, shape (k, n)."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (space.n,) and not (stack and values.ndim == 2 and values.shape[0] and values.shape[1] == space.n):
        raise InputError(f"field must have length {space.n}{' (a stack: k >= 1 rows of it)' if stack else ''}, "
                         f"got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InputError("field entries must be finite")
    return values


def check_radius(r) -> float:
    r = float(r)
    if not (r > 0) or not np.isfinite(r):
        raise InputError(f"radius must be a positive finite real, got {r}")
    return r


def is_collision_radius(space: FiniteMMSpace, r) -> bool:
    """True when r equals some pairwise distance (ball membership is
    discontinuous in r there)."""
    return bool(np.any(space.dist == space.radius(r)))


def ball(space: FiniteMMSpace, x, r):
    """Members and total mass of the open ball around point x (an index)."""
    r = space.radius(r)
    members = _kernel_rows(space, r, [space.index_of(x)]).indices
    return members, float(np.sum(space.mass[members]))


class _Balls:
    """Ball masses mu(B_r(x)) of one space at one checked radius r and their
    inverses, computed once and never changed; row_sums is the one pass
    over the ball's table.

    On a full table, and on a cut table at its cut, that table is the
    space's own.  Below the cut it is the source's table (the space's, or
    the last ball's when the radius shrinks) cut down to its entries < r,
    so each sum runs over its own balls and not over the cut's.  A full
    table is never compacted.
    """

    def __init__(self, space: FiniteMMSpace, r: float, source):
        # the space's arrays, not the space, which keeps this object: no cycle
        self.dist, self.cols, self.offsets, self.n, self.r = space.dist, space.cols, space.offsets, space.n, r
        if space.cols is not None and r < space.cut:
            kept = np.flatnonzero(source.dist < r)  # a row's kept entries start at its first one's rank
            self.dist, self.cols = source.dist[kept], source.cols[kept]
            self.offsets = np.searchsorted(kept, source.offsets)
            counts = np.diff(self.offsets)
            logger.debug("ball table at radius %r: %d -> %d entries, mean row %.1f, widest %d",
                         r, source.dist.size, kept.size, counts.mean(), counts.max(initial=0))
        self.masses = self.sums(space.mass)
        self.inv = 1.0 / self.masses

    def take(self, v, span) -> np.ndarray:
        """Per-point values v, shape (..., n), at the columns of a block's
        entries (see row_sums); on a full table that is v itself with a
        row axis, which broadcasts."""
        return v[..., None, :] if self.cols is None else np.take(v, self.cols[span[0]], axis=-1)

    def own(self, v, span) -> np.ndarray:
        """Per-point values v, shape (..., n), at each entry's own row, for a
        block's entries."""
        rows, counts = span[1:]
        return v[..., rows, None] if counts is None else np.repeat(v[..., rows], counts, axis=-1)

    def sums(self, v) -> np.ndarray:
        """Row sums of w * v_y: the sum of the per-point vector v (or of each
        row of a stack of them) over each ball."""
        return self.row_sums(lambda span, w, a, b: np.multiply(w, self.take(v, span), out=a), v.shape[:-1])

    def row_sums(self, fill, lead: tuple = ()) -> np.ndarray:
        """Row sums of the summands fill(span, w, a, b) leaves in a, block by
        block, for each of the prod(lead) fields of a stack: w = (dist < r)
        on the block's entries, and a, b scratch of shape lead + theirs.
        Fills read per-point values at the entries' columns as take(v, span)
        and at their own rows as own(v, span).  A full table's block is rows
        s .. e-1 by all n columns, a cut table's the flat entries of its
        rows; both are summed along their last, contiguous axis, the first
        by numpy's pairwise sum per row and the second per row by
        reduceat, whatever lead is.  So a stacked field's row sums keep
        the bits of its own pass.  Blocks hold about _BLOCK_ENTRIES summands
        for the whole stack.  Scratch is per pass, so passes on one object
        stay independent."""
        n, o, full, k = self.n, self.offsets, self.cols is None, math.prod(lead)
        spans = row_blocks(n, k * n) if full else row_runs(o, k)
        size = max(((e - s) * n if full else o[e] - o[s] for s, e in spans), default=0)
        w_buf, a_buf, b_buf = np.empty(size, dtype=bool), np.empty(k * size), np.empty(k * size)
        out = np.empty(lead + (n,))
        for s, e in spans:
            # (the table's index of the entries, their rows, each row's count)
            span = (slice(s, e), slice(s, e), None) if full else (slice(o[s], o[e]), slice(s, e), np.diff(o[s : e + 1]))
            shape = (e - s, n) if full else (o[e] - o[s],)
            w = w_buf[: math.prod(shape)].reshape(shape)
            a, b = (buf[: k * math.prod(shape)].reshape(lead + shape) for buf in (a_buf, b_buf))
            np.less(self.dist[span[0]], self.r, out=w)
            fill(span, w, a, b)
            if full:
                a.sum(axis=-1, out=out[..., s:e])
            else:
                np.add.reduceat(a, o[s:e] - o[s], axis=-1, out=out[..., s:e])
        return out


def ball_masses(space: FiniteMMSpace, r) -> np.ndarray:
    """mu(B_r(x)) for every x, in point order."""
    return space._balls(r).masses.copy()


def average(space: FiniteMMSpace, u, r) -> np.ndarray:
    """Ball average A_r u(x) = mean of u over B_r(x) against the masses, of a
    field or of each row of a stack (k, n)."""
    u = as_field(space, u, stack=True)
    balls = space._balls(r)
    return balls.sums(u * space.mass) / balls.masses


def adjoint_average(space: FiniteMMSpace, u, r) -> np.ndarray:
    """Formal adjoint A_r* u(x) = sum over the ball of u(y) m(y)/mu(B_r(y)), of
    a field or of each row of a stack (k, n)."""
    u = as_field(space, u, stack=True)
    balls = space._balls(r)
    return balls.sums(u * space.mass / balls.masses)


def r_laplacian(space: FiniteMMSpace, u, r) -> np.ndarray:
    r = check_radius(r)
    u = as_field(space, u, stack=True)
    return (average(space, u, r) - u) / r**2


def adjoint_r_laplacian(space: FiniteMMSpace, u, r) -> np.ndarray:
    r = check_radius(r)
    u = as_field(space, u, stack=True)
    return (adjoint_average(space, u, r) - u) / r**2


def _kernel_rows(space: FiniteMMSpace, r, rows) -> sparse.csr_array:
    """Rows x (point indices) of the symmetric mean value kernel
    k_r(x,y) = (1/mu(B_r(x)) + 1/mu(B_r(y)))/2 on the open ball, as a
    len(rows) x n CSR matrix whose pattern is the balls: every y with
    d(x,y) < r, x itself included, in ascending column order.  rows must be
    point indices: integers in [0, n)."""
    balls = space._balls(r)
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.size and not (rows.dtype.kind in "iu" and 0 <= rows.min() <= rows.max() < space.n):
        raise InputError(f"rows must be point indices, integers in [0, {space.n})")
    rows = rows.astype(np.intp)
    if balls.cols is None:
        entry_row, cols = np.nonzero(balls.dist[rows] < balls.r)
    else:  # the rows' entries, then those < r
        starts, counts = balls.offsets[rows], balls.offsets[rows + 1] - balls.offsets[rows]
        entry_row = np.repeat(np.arange(rows.size), counts)
        entries = np.arange(entry_row.size) + (starts - np.cumsum(counts) + counts)[entry_row]
        keep = balls.dist[entries] < balls.r
        entry_row, cols = entry_row[keep], balls.cols[entries[keep]]
    inv = balls.inv
    indptr = np.concatenate(([0], np.cumsum(np.bincount(entry_row, minlength=rows.size))))
    return sparse.csr_array((0.5 * (inv[rows[entry_row]] + inv[cols]), cols, indptr), shape=(rows.size, space.n))


def kernel_matrix(space: FiniteMMSpace, r, rows=None) -> np.ndarray:
    """Symmetric mean value kernel k_r(x,y), zero off the open ball, as a
    dense matrix; with rows given, only the rows x of those point indices."""
    return _kernel_rows(space, r, np.arange(space.n) if rows is None else rows).toarray()


def sym_r_laplacian(space: FiniteMMSpace, u, r) -> np.ndarray:
    """Symmetrized r-laplacian, computed from the kernel itself, of a field or
    of each row of a stack (k, n).

    This is intentionally a different route than the expansion
    (r_laplacian + adjoint - u * adjoint of 1)/2, which tests assert
    against it.
    """
    u = as_field(space, u, stack=True)
    balls = space._balls(r)
    inv, m = balls.inv, space.mass

    def fill(span, w, a, b):  # 0.5 (inv_x + inv_y) * w * (u_y - u_x) * m_y
        np.multiply(0.5, np.add(balls.own(inv, span), balls.take(inv, span), out=a), out=a)
        a *= w
        a *= np.subtract(balls.take(u, span), balls.own(u, span), out=b)
        a *= balls.take(m, span)

    return balls.row_sums(fill, u.shape[:-1]) / balls.r**2


def delta_r(space: FiniteMMSpace, x, y, r) -> float:
    """Relative ball-mass deficit 1 - mu(B_r(x))/mu(B_r(y))."""
    r = check_radius(r)
    i = space.index_of(x)
    j = space.index_of(y)
    masses = ball_masses(space, r)
    return float(1.0 - masses[i] / masses[j])


def energy_density(space: FiniteMMSpace, u, v, r) -> np.ndarray:
    """Approximate energy density e_r(u,v), a symmetric bilinear form."""
    u = as_field(space, u)
    v = as_field(space, v)
    balls = space._balls(r)
    m = space.mass

    def fill(span, w, a, b):  # w * (u_y - u_x) * (v_y - v_x) * m_y
        np.subtract(balls.take(u, span), balls.own(u, span), out=a)
        a *= w
        a *= np.subtract(balls.take(v, span), balls.own(v, span), out=b)
        a *= balls.take(m, span)

    return 0.5 * balls.row_sums(fill) / balls.masses / balls.r**2


def total_energy(space: FiniteMMSpace, u, v, r) -> float:
    return float(np.sum(energy_density(space, u, v, r) * space.mass))


# ---------------------------------------------------------------------------
# text serialization
#
# Grammar (see README for the commented version):
#   line 1:            n  (point count, positive integer)
#   lines 2 .. n:      strict lower triangle of dist; line k has k-1 entries
#                      d(k,1) ... d(k,k-1), whitespace-separated decimals
#   last line:         n masses, whitespace-separated decimals
# Blank lines and lines starting with '#' are ignored (content_lines).
# ---------------------------------------------------------------------------


def save_space(space: FiniteMMSpace, path_or_file) -> None:
    if space.cols is not None:
        raise InputError("a space with a cut neighbour table has no file form; save a full one")
    with opened(path_or_file, "w") as f:
        f.write(f"{space.n}\n")
        # tolist() converts a row in C; repr of a float is the shortest round-trip decimal
        for i in range(1, space.n):
            f.write(" ".join(map(repr, space.dist[i, :i].tolist())) + "\n")
        f.write(" ".join(map(repr, space.mass.tolist())) + "\n")


def load_space(path_or_file) -> FiniteMMSpace:
    with opened(path_or_file) as f:
        lines = content_lines(f.read())
    if not lines:
        raise InputError("empty space file")
    [n] = line_fields(lines[0], (int,), "first line must be the point count")
    if n < 1:
        raise InputError("point count must be >= 1")
    if len(lines) != n + 1:
        raise InputError(f"expected {n + 1} content lines for n={n}, got {len(lines)}")
    check_memory(8 * n * n, f"a space file of n={n} points", "distance matrix")

    def numbers(k):
        try:
            return list(map(float, lines[k].split()))
        except ValueError:
            raise InputError(f"content line {k + 1} is not all numbers: {lines[k]!r}") from None

    dist = np.zeros((n, n))
    for i in range(1, n):
        row = numbers(i)
        if len(row) != i:
            raise InputError(f"distance row {i + 1} must have {i} entries, got {len(row)}")
        dist[i, :i] = row
    # mirror the strict lower triangle: row writes above, no strided column writes
    np.copyto(dist.T, dist, where=np.tri(n, k=-1, dtype=bool))
    mass = np.array(numbers(n))
    if mass.shape != (n,):
        raise InputError(f"mass line must have {n} entries, got {mass.shape[0]}")
    return FiniteMMSpace(dist, mass)


def save_field(values, path_or_file) -> None:
    values = np.asarray(values, dtype=np.float64)
    with opened(path_or_file, "w") as f:
        f.write("".join(repr(float(v)) + "\n" for v in values))


def load_field(path_or_file) -> np.ndarray:
    """One decimal per content line."""
    with opened(path_or_file) as f:
        lines = content_lines(f.read())
    return np.array([line_fields(ln, (float,), "a field line is one number")[0] for ln in lines])


def space_to_text(space: FiniteMMSpace) -> str:
    buf = io.StringIO()
    save_space(space, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def random_space(rng: np.random.Generator, n_max: int = 40) -> FiniteMMSpace:
    """Random instance: symmetric distances in (0, 2), masses in [0.1, 10]."""
    n = int(rng.integers(2, n_max + 1))
    a = rng.uniform(0.05, 2.0, size=(n, n))
    dist = np.triu(a, 1)
    dist = dist + dist.T
    mass = rng.uniform(0.1, 10.0, size=n)
    return FiniteMMSpace(dist, mass)


def identity_residuals(space: FiniteMMSpace, u, v, r) -> dict:
    """Relative residuals of the exact operator identities.

    Each residual is |lhs - rhs| divided by the magnitude of the terms that
    enter it (so near-cancellation does not inflate it); the identities hold
    to machine precision, residuals ~1e-16.
    """
    u = as_field(space, u)
    v = as_field(space, v)
    r = check_radius(r)
    m = space.mass
    abs_u, abs_v, uv = np.abs(u), np.abs(v), u * v
    c = np.full(space.n, 3.25)  # constants are annihilated (adjoint only up to c * adj(1))

    def rel(lhs, rhs, scale):
        return float(abs(lhs - rhs) / max(scale, 1e-300))

    def rel_pointwise(lhs, rhs, scale):
        return float(np.max(np.abs(lhs - rhs) / np.maximum(scale, 1e-300)))

    # one pass per operator over a stack of fields, each row with the bits of
    # its own call.  A field f gives its laplacian (A f - f)/r^2, and |f| the
    # magnitude (A |f| + |f|)/r^2 of the sums inside an operator evaluation:
    # the roundoff a residual inherits is relative to these, not to the
    # (possibly cancelling) outputs
    fields = np.stack([u, v, abs_u, abs_v, np.abs(uv), uv, c])
    avg = average(space, fields, r)
    lap_u, lap_v, _, _, _, lap_uv, lap_c = (avg - fields) / r**2
    _, _, s_u, s_v, s_uv, _, _ = (avg + fields) / r**2
    fields = np.stack([u, v, abs_u, abs_v, np.ones(space.n), c])
    adj = adjoint_average(space, fields, r)
    adj_u, adj_v, _, _, adj_one, adj_c = (adj - fields) / r**2
    _, _, s_adj_u, s_adj_v, s_one, _ = (adj + fields) / r**2
    sym_u, sym_v, sym_c = sym_r_laplacian(space, np.stack([u, v, c]), r)

    out = {}

    # Green: int v (lap u) = int u (adj lap v)
    lhs = float(np.sum(v * lap_u * m))
    rhs = float(np.sum(u * adj_v * m))
    scale = float(np.sum((abs_v * s_u + abs_u * s_adj_v) * m))
    out["green"] = rel(lhs, rhs, scale)

    # symmetrization identity: sym = (lap + adj - u * adj(1)) / 2
    rhs_pw = 0.5 * (lap_u + adj_u - u * adj_one)
    scale_pw = s_u + s_adj_u + abs_u * s_one
    out["symmetrization"] = rel_pointwise(sym_u, rhs_pw, scale_pw)

    # product rule: lap(uv) = u lap v + 2 e_r(u,v) + v lap u
    e_uv = energy_density(space, u, v, r)
    rhs_pw = u * lap_v + 2.0 * e_uv + v * lap_u
    scale_pw = abs_u * s_v + abs_v * s_u + s_uv
    out["product_rule"] = rel_pointwise(lap_uv, rhs_pw, scale_pw)

    # pairing vs energy: int v sym(u) = -E_r(u,v)
    lhs = float(np.sum(v * sym_u * m))
    rhs = -float(np.sum(e_uv * m))
    scale = float(np.sum((abs_v * (s_u + s_adj_u) + abs_u * s_v + s_uv) * m))
    out["energy_pairing"] = rel(lhs, rhs, scale)

    # self-adjointness of the symmetrized laplacian
    lhs = float(np.sum(v * sym_u * m))
    rhs = float(np.sum(u * sym_v * m))
    scale = float(
        np.sum((abs_v * (s_u + s_adj_u + abs_u * s_one) + abs_u * (s_v + s_adj_v + abs_v * s_one)) * m)
    )
    out["sym_self_adjoint"] = rel(lhs, rhs, scale)

    # deviation identity: int v (lap - sym) u = mass-deficit pairing
    masses = ball_masses(space, r)
    balls = space._balls(r)

    def fill(span, w, a, b):  # w * (1 - mu_x / mu_y) * (u_y - u_x) * m_y
        np.subtract(1.0, np.divide(balls.own(masses, span), balls.take(masses, span), out=a), out=a)
        a *= w
        a *= np.subtract(balls.take(u, span), balls.own(u, span), out=b)
        a *= balls.take(m, span)

    inner = balls.row_sums(fill) / masses
    rhs = float(np.sum(0.5 * v * inner / r**2 * m))
    lhs = float(np.sum(v * (lap_u - sym_u) * m))
    # lhs is a difference of two pairings, so its roundoff scales with the
    # sums inside the pairings, not with the (possibly tiny) difference
    scale = float(np.sum(abs_v * (s_u + s_adj_u + abs_u * s_one) * m))
    out["deviation"] = rel(lhs, rhs, scale)

    # kernel symmetry and support
    k = kernel_matrix(space, r)
    out["kernel_symmetry"] = float(np.max(np.abs(k - k.T)) / max(np.max(np.abs(k)), 1e-300))
    out["kernel_support"] = float(np.max(np.abs(k[space.as_matrix(space.dist, fill=np.inf) >= r]), initial=0.0))

    # constants, normalized by the c/r^2 magnitude of the averaging sums
    kill = max(float(np.max(np.abs(lap_c))), float(np.max(np.abs(sym_c))))
    out["constant_kill"] = kill / (3.25 * (1.0 + 1.0 / r**2))
    out["adjoint_constant"] = rel_pointwise(
        adj_c,
        3.25 * adj_one,
        np.abs(3.25 * adj_one) + 3.25,
    )
    return out


def run_identity_suite(count: int, size_max: int, seed: int, fault_inject: bool = False) -> dict:
    """Run the exact-identity suite on random instances.

    Returns {"ok": bool, "worst": {identity: residual}, "count": count}; a
    violating instance is serialized under "offender" for replay.  With
    fault_inject, one mass of the final instance is perturbed, which must
    trip the suite (negative control).  A size_max whose largest instance
    would exceed the memory budget is refused before anything is drawn.
    """
    # peak RSS of one identity_residuals call at n = 1000 and 2000, r = 2.19
    # (every pair in the ball): 48 bytes per pair
    check_memory(48 * size_max**2, f"an identity-suite instance of up to n={size_max} points", "working set")
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}
    offender = None
    tol = 1e-12
    for trial in range(count):
        space = random_space(rng, size_max)
        u = rng.uniform(-3.0, 3.0, size=space.n)
        v = rng.uniform(-3.0, 3.0, size=space.n)
        r = float(rng.uniform(0.2, 2.2))
        while is_collision_radius(space, r):  # pragma: no cover - measure-zero
            r = float(rng.uniform(0.2, 2.2))
        if fault_inject and trial == count - 1:
            # perturb one ball mass after the fact: recompute lhs with a
            # corrupted space but rhs with the original
            bad = FiniteMMSpace(space.dist, space.mass * np.where(np.arange(space.n) == 0, 1.01, 1.0))
            res = identity_residuals(bad, u, v, r)
            lhs = float(np.sum(v * r_laplacian(space, u, r) * space.mass))
            rhs = float(np.sum(u * adjoint_r_laplacian(bad, v, r) * bad.mass))
            res["green"] = max(res["green"], abs(lhs - rhs) / max(abs(lhs) + abs(rhs), 1e-300))
            space = bad
        else:
            res = identity_residuals(space, u, v, r)
        for name, val in res.items():
            if val > worst.get(name, 0.0):
                worst[name] = val
        if any(val > tol for val in res.values()) and offender is None:
            offender = {
                "space": space_to_text(space),
                "u": u.tolist(),
                "v": v.tolist(),
                "r": r,
                "residuals": res,
            }
    ok = all(val <= tol for val in worst.values()) if worst else True
    summary = {"ok": ok, "count": count, "tolerance": tol, "worst": worst}
    if offender is not None:
        summary["offender"] = offender
    return summary
