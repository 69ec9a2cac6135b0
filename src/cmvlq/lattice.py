"""Joint path tree for one idiosyncratic and one common Wiener process.

The discretization enumerates full increment histories: each step branches
into the four sign combinations of (dW0, dW), both increments of magnitude
sqrt(dt), each branch with probability 1/4.  Nodes are never merged, so a
node at step k is exactly one history of k increment pairs.  Conditional
expectation given the common-noise history is then an exact weighted mean
over the nodes sharing a W0 prefix, which is what makes the decomposition
identities hold at floating-point precision instead of up to a
discretization error.

Node ordering is lexicographic in the increment history, branches ordered
(+,+), (+,-), (-,+), (-,-) with "+" first, so the children of node i sit
at 4i..4i+3.  An optional initial randomization ("atoms", outermost index)
realizes a random initial state; atoms count as idiosyncratic information,
so conditioning on the common noise averages over them.

In the node index, step j contributes the base-4 digit 2*b0 + b1, where
b0 is the common-noise bit and b1 the idiosyncratic bit (0 = "+"), first
step most significant; the W0 prefix id (``w0_of_node``) is the b0 bits.
That map is the one per-node array the tree stores, as expansion reads
it.  The rest of the layout is computed on read: ``probs`` from the atom
probabilities, the children from the branch sign tables, and the
``atom_of_node``, ``last_dw0`` and ``last_dw`` views, which no kernel
reads, from the node order the first time something reads them.

A prefix's cumulative W0 value is fixed by its level, its count of "-"
steps: step k has the k+1 levels of a recombining lattice (Cox, Ross &
Rubinstein 1979).  ``w0_prefix_cums`` reads each prefix's value off its
level, so per-prefix and per-level coefficients agree bit for bit.

Every joint tree has a W0-only form, ``JointTree.common``: the lattice of
a problem driven by the common noise alone, as the conditional-mean one
is.  It has one atom, its node id is the W0 prefix id, and node q has the
children 2q and 2q+1, reached by dW0 = +sqrt(dt) and -sqrt(dt), each with
probability 1/2.  It is the same class with two branch slots instead of
four and nothing to fold: every kernel below serves both forms, and one
refuses only what needs the idiosyncratic noise (its loading, its
increment moment).  A process of one form is refused on the other.

The kernels (``JointTree`` methods ending in ``_rows``) work in
(component, node) layout, node axis last, so each state or control
component is one long contiguous row.  Conditioning folds the b1 bits
out of a row in node order, first step first, by adding slice pairs, then
weights the atoms; per-prefix values go back onto the nodes by one
``take`` on ``w0_of_node``; children are written one branch slot at a
time.  Node-dependent coefficients are evaluated once per prefix and
expanded the same way, one block of nodes at a time (``decomposition``);
deterministic ones are never copied onto the nodes.  ``TreeProcess.values``
keep the (node, component) shape; ``values[k].T`` is the row view the
kernels take, without a copy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AdaptednessError, CapacityError, DimensionError

F_ADAPTED = "F"
F0_ADAPTED = "F0"

MAX_TREE_STEPS = 10
# how far the initial atoms' probabilities may sum from 1: the config
# parser, the tree and the Monte Carlo initial draw read this one bound
ATOM_SUM_TOL = 1e-12

# Branch tables: the signs of (dW0, dW) into each child slot, "+" first.
# The joint tree has the four slots (+,+), (+,-), (-,+), (-,-); its common
# form the two slots + and -, with no idiosyncratic increment.
_JOINT_SIGNS = (np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0]))
_COMMON_SIGNS = (np.array([1.0, -1.0]), np.zeros(2))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with n_steps steps on [0, horizon]."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        if not isinstance(self.n_steps, numbers.Integral) or self.n_steps < 1:
            raise DimensionError("n_steps",
                                 f"must be an integer of at least 1, got {self.n_steps!r}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise DimensionError("horizon", f"must be finite and positive, got {self.horizon!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def sqrt_dt(self) -> float:
        return float(np.sqrt(self.dt))

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def w0_levels(grid: TimeGrid, k: int) -> np.ndarray:
    """The cumulative W0 value of each level j = 0..k at step k: sqrt(dt) (k - 2j)."""
    return grid.sqrt_dt * (k - 2.0 * np.arange(k + 1))


def w0_prefix_levels(n_steps: int) -> list[np.ndarray]:
    """Per step 0..n_steps, each prefix's level: the count of 1 ("-") bits of its id."""
    levels = [np.zeros(1, dtype=np.int64)]
    for _ in range(n_steps):
        levels.append((levels[-1][:, None] + np.arange(2)).ravel())
    return levels


def w0_prefix_cums(grid: TimeGrid) -> list[np.ndarray]:
    """Cumulative common-noise value per W0 prefix, one array per step.

    Entry k has shape (2**k,), indexed by the prefix id whose bits are the
    signs of the k first dW0 increments (0 bit = "+"): the ``w0_levels``
    value at the prefix's level.
    """
    return [w0_levels(grid, k)[level] for k, level in enumerate(w0_prefix_levels(grid.n_steps))]


class JointTree:
    """Enumerated joint increment histories plus exact conditioning maps.

    Not constructed directly; use :func:`build_joint_tree`, and
    ``common`` for the W0-only form.
    """

    def __init__(self, grid: TimeGrid, atom_probs: np.ndarray, _signs=_JOINT_SIGNS):
        self.grid = grid
        self.atom_probs = atom_probs
        self.n_atoms = len(atom_probs)
        sign0, sign1 = _signs
        self.branches = len(sign0)
        self.idiosyncratic = bool(sign1.any())
        self._signs = {"w0": sign0, "w": sign1}
        self.cum_w0_prefix = w0_prefix_cums(grid)

        # The one stored per-node map: each node's W0 prefix id, per step.
        self.w0_of_node: list[np.ndarray] = [np.zeros(self.n_atoms, dtype=np.int64)]
        bit0 = (sign0 < 0).astype(np.int64)
        for _ in range(grid.n_steps):
            w0 = self.w0_of_node[-1]
            self.w0_of_node.append((np.repeat(w0, self.branches) << 1) | np.tile(bit0, len(w0)))

        self._atom_weights = probs_normalized(atom_probs)
        # the W0-only form: one node per W0 prefix; its own common form
        self.common = JointTree(grid, np.ones(1), _COMMON_SIGNS) if self.idiosyncratic else self

    def n_nodes(self, k: int) -> int:
        return self.n_atoms * self.branches**k

    def n_prefixes(self, k: int) -> int:
        return 2**k

    def probs(self, k: int) -> np.ndarray:
        """Node probabilities at step k: each atom's probability over its branches**k nodes.

        Dividing by a power of two is exact, so this is the probability
        halved or quartered once per step, bit for bit.
        """
        return np.repeat(self.atom_probs / self.branches**k, self.branches**k)

    # -- layout views, built on first read; no kernel reads them -------------

    @cached_property
    def atom_of_node(self) -> list[np.ndarray]:
        """Each node's atom, per step: atom a owns nodes a * branches**k onward."""
        atoms = np.arange(self.n_atoms, dtype=np.int64)
        return [np.repeat(atoms, self.branches**k) for k in range(self.grid.n_steps + 1)]

    @cached_property
    def last_dw0(self) -> list[np.ndarray]:
        """The dW0 increment that led into each node, per step (empty at step 0)."""
        return self._last_increments("w0")

    @cached_property
    def last_dw(self) -> list[np.ndarray]:
        """The dW increment that led into each node, per step (empty at step 0)."""
        return self._last_increments("w")

    def _last_increments(self, which: str) -> list[np.ndarray]:
        step = self._signs[which] * self.grid.sqrt_dt
        return [np.zeros(0)] + [np.tile(step, self.n_nodes(k)) for k in range(self.grid.n_steps)]

    # -- exact conditioning -------------------------------------------------

    def fold_rows(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Sum out the idiosyncratic bits: (..., n_nodes(k)) -> (..., n_atoms, 2**k).

        In prefix order.  The first step goes first: its b1 halves are the
        longest contiguous runs, so the largest fold is the fastest one.
        The common form has no b1 bits, so nothing to fold.
        """
        v = np.asarray(rows)
        lead = v.shape[:-1]
        if v.shape[-1] != self.n_nodes(k):
            raise DimensionError("values", f"expected {self.n_nodes(k)} nodes, got {v.shape[-1]}", step=k)
        outer = int(np.prod(lead, dtype=np.int64)) * self.n_atoms
        for j in range(self._fold_depth(k)):
            # axes (payload, atom and kept b0 bits before j, b0_j, b1_j, steps after j)
            v = v.reshape(outer * 2**j, 2, 2, 4 ** (k - 1 - j))
            v = v[:, :, 0] + v[:, :, 1]
        return v.reshape(lead + (self.n_atoms, 2**k))

    def prefix_mean_rows(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Conditional expectation given the W0 prefix: (..., 2**k)."""
        weights = self._atom_weights * 0.5 ** self._fold_depth(k)
        return weights @ self.fold_rows(k, rows)

    def expand_rows(self, k: int, prefix_rows: np.ndarray) -> np.ndarray:
        """Per-prefix values (..., 2**k) onto the nodes of step k: (..., n_nodes(k))."""
        pv = np.asarray(prefix_rows)
        if pv.shape[-1] != 2**k:
            raise DimensionError("prefix_values", f"expected {2 ** k} prefixes, got {pv.shape[-1]}", step=k)
        return np.take(pv, self.w0_of_node[k], axis=-1)

    def child_mean_rows(self, k: int, child_rows: np.ndarray) -> np.ndarray:
        """One-step predictor: mean over the children of each node.

        (..., n_nodes(k+1)) -> (..., n_nodes(k)).  Children of node i
        occupy the branches slots from branches * i on, each with weight
        1/branches.
        """
        v = self._children_grouped(k, child_rows)
        total = v[..., 0]
        for j in range(1, self.branches):
            total = total + v[..., j]
        return total / self.branches

    def child_increment_mean_rows(self, k: int, child_rows: np.ndarray, which: str) -> np.ndarray:
        """E[value * dW]/dt over each node's children, for either noise.

        On the two-point increment this extracts the exact martingale
        loading of the chosen Wiener process.
        """
        if which not in self._signs:
            raise ValueError(f"which must be 'w' or 'w0', got {which!r}")
        if which == "w" and not self.idiosyncratic:
            raise DimensionError("which", "the common-noise tree carries no idiosyncratic noise", step=k)
        v = self._children_grouped(k, child_rows)
        return (v * self._signs[which]).sum(axis=-1) / (self.branches * self.grid.sqrt_dt)

    def children_rows(self, k: int, mean: np.ndarray, D=None, D0=None) -> np.ndarray:
        """States at the children of the step-k nodes: mean + D dW + D0 dW0.

        mean is (n, n_nodes(k)); each loading None, shared (n, 1) or per
        node.  Child slot j of all nodes is written in one strided pass.
        """
        m = np.asarray(mean)
        if k < 0 or k + 1 > self.grid.n_steps or m.shape[-1] != self.n_nodes(k):
            raise DimensionError("mean", f"no step-{k + 1} children for {m.shape[-1]} nodes", step=k)
        if D is not None and not self.idiosyncratic:
            raise DimensionError("D", "the common-noise tree carries no idiosyncratic noise", step=k)
        slots = self.branches
        pairs = ((D, self._signs["w"]), (D0, self._signs["w0"]))
        loads = [(load, signs * self.grid.sqrt_dt) for load, signs in pairs if load is not None]
        if not loads:
            return np.repeat(m, slots, axis=-1)
        out = np.empty(m.shape + (slots,))
        for j in range(slots):
            np.add(m, sum(load * dw[j] for load, dw in loads), out=out[..., j])
        return out.reshape(m.shape[:-1] + (slots * m.shape[-1],))

    def _fold_depth(self, k: int) -> int:
        """Steps whose idiosyncratic bit a fold at step k sums out."""
        return k if self.idiosyncratic else 0

    def _children_grouped(self, k: int, child_rows: np.ndarray) -> np.ndarray:
        v = np.asarray(child_rows)
        if k < 0 or k + 1 > self.grid.n_steps:
            raise DimensionError("step", f"no children beyond step {self.grid.n_steps}", step=k)
        if v.shape[-1] != self.n_nodes(k + 1):
            raise DimensionError(
                "child_values", f"expected {self.n_nodes(k + 1)} nodes, got {v.shape[-1]}", step=k + 1
            )
        return v.reshape(v.shape[:-1] + (self.n_nodes(k), self.branches))


def probs_normalized(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return p / p.sum()


def build_joint_tree(grid: TimeGrid, atom_probs=None) -> JointTree:
    """Enumerate the joint tree for the given grid.

    atom_probs, when given, lists the probabilities of the initial
    randomization atoms (they must sum to 1).  Capped at MAX_TREE_STEPS
    steps; beyond that the node count is unmanageable and the ODE or
    Monte Carlo route should be used instead.
    """
    if grid.n_steps > MAX_TREE_STEPS:
        raise CapacityError(
            f"a joint path tree with {grid.n_steps} steps has "
            f"{4 ** grid.n_steps} terminal nodes; the enumerated-tree mode is "
            f"capped at {MAX_TREE_STEPS} steps -- use the ODE backend or Monte "
            f"Carlo simulation for finer grids"
        )
    if atom_probs is None:
        atom_probs = np.ones(1)
    atom_probs = np.asarray(atom_probs, dtype=float)
    if atom_probs.ndim != 1 or len(atom_probs) < 1:
        raise DimensionError("atom_probs", "must be a 1-d probability vector")
    if np.any(atom_probs <= 0.0) or abs(atom_probs.sum() - 1.0) > ATOM_SUM_TOL:
        raise DimensionError("atom_probs", "must be positive and sum to one")
    return JointTree(grid, atom_probs)


@dataclass
class TreeProcess:
    """Values on tree nodes, one array per step, with an adaptedness tag.

    values[k] has leading dimension tree.n_nodes(k); the payload may be a
    scalar slot, a vector, or a matrix.  The tag is a label, not checked:
    a process that must be F0-adapted lives on ``JointTree.common``, one
    node per W0 prefix, and is adapted by construction.
    """

    tree: JointTree
    values: list = field(default_factory=list)
    adapted: str = F_ADAPTED

    def __post_init__(self):
        if self.adapted not in (F_ADAPTED, F0_ADAPTED):
            raise AdaptednessError(f"unknown adaptedness tag {self.adapted!r}")
        self.values = [np.asarray(v, dtype=float) for v in self.values]
        for k, v in enumerate(self.values):
            if v.shape[0] != self.tree.n_nodes(k):
                raise DimensionError(
                    "values", f"expected {self.tree.n_nodes(k)} nodes, got {v.shape[0]}", step=k
                )

    @property
    def n_step_arrays(self) -> int:
        return len(self.values)


def inner_product(u: TreeProcess, v: TreeProcess, tree: JointTree, grid: TimeGrid) -> float:
    """Control-space inner product E integral u.v dt as an exact tree sum.

    Sums over steps 0..n_steps-1 (left endpoints); both processes must
    provide those steps and share the payload dimension.
    """
    _require_same_tree(u, tree)
    _require_same_tree(v, tree)
    if u.n_step_arrays < grid.n_steps or v.n_step_arrays < grid.n_steps:
        raise DimensionError(
            "process", f"need values at steps 0..{grid.n_steps - 1} for the time integral"
        )
    total = 0.0
    for k in range(grid.n_steps):
        a, b = u.values[k], v.values[k]
        if a.shape != b.shape:
            raise DimensionError("payload", f"mismatched shapes {a.shape} vs {b.shape}", step=k)
        dots = (a * b).reshape(a.shape[0], -1).sum(axis=1)
        total += float(np.dot(tree.probs(k), dots))
    return total * grid.dt


def _require_same_tree(p: TreeProcess, tree: JointTree, what: str = "tree"):
    """Refuse a process of another kind of tree, grid or atom probabilities.

    ``what`` names the refused field: "tree", "control" or "state".
    """
    other = p.tree
    if other is not tree and not (
        other.branches == tree.branches
        and other.grid == tree.grid
        and np.array_equal(other.atom_probs, tree.atom_probs)
    ):
        raise DimensionError(what, "process belongs to a different tree")
