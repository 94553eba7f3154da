"""The decision-diagram package: construction and manipulation of QMDDs.

This module provides the data-structure backend that tools like QCEC are built
on: quantum states are represented as *vector* decision diagrams and
operators as *matrix* decision diagrams, both with normalized, hash-consed
nodes and memoized recursive operations.  For the redundancy-rich diagrams
that appear during equivalence checking (products of a circuit with the
inverse of an equivalent circuit stay close to the identity) the
representation is exponentially more compact than dense arrays.

Conventions
-----------
* Qubit 0 is the lowest DD level (closest to the terminal); the top node of a
  diagram over ``n`` qubits has ``index == n - 1``.
* Vector/matrix indices are little-endian: bit ``q`` of an index is qubit ``q``.
* Matrix node successor ``2*row + column`` corresponds to the node qubit having
  output value ``row`` and input value ``column``.

Edge-factory invariants (performance-critical)
----------------------------------------------
The kernels in this module are the hottest code in the repository, so they
follow a small set of strict conventions:

* Edges are immutable flyweights.  The zero vector/matrix and the unit
  terminal edge are the module-level singletons
  :data:`~repro.dd.nodes.V_ZERO` / :data:`~repro.dd.nodes.M_ZERO` /
  :data:`~repro.dd.nodes.V_ONE` / :data:`~repro.dd.nodes.M_ONE`; kernels
  return those instead of allocating fresh terminal edges.
* ``VEdge`` / ``MEdge`` constructors store weights *as-is*.  Values crossing
  the numpy boundary (``operator_chain``, ``vector_from_numpy``, ``scale_*``)
  are coerced to Python ``complex`` once per entry, so downstream arithmetic
  stays on native complex numbers.
* Kernels never use the ``is_zero`` / ``is_terminal`` properties; they inline
  ``edge.node is None`` / ``weight == 0`` checks.
* Node construction goes through the specialized ``_make_vector_node`` /
  ``_make_matrix_node`` normalizers, which build the unique-table signature
  key inline (id + weight rounded to
  :data:`~repro.dd.complexvalue.HASH_DECIMALS` decimals) in the same loop
  that normalizes the successor weights; created nodes carry the hash of that
  key in their ``hash`` slot.
* Compute-table keys are weight-canonical: multiplication keys carry node ids
  only (both root weights factor out of the product), addition keys carry the
  right/left weight *ratio* — so numerically scaled instances of the same
  structural computation always hit the same entry.

Lifetime
--------
A package lives for one checker attempt and is dropped with everything it
built, so its tables and memo caches are unbounded plain dicts: nothing in
them outlives the run that filled it, and the unique table keeps every node
alive until then anyway.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.dd.complexvalue import DEFAULT_TOLERANCE, HASH_DECIMALS
from repro.dd.compute_table import ComputeTable
from repro.dd.nodes import M_ONE, M_ZERO, MEdge, MNode, V_ONE, V_ZERO, VEdge, VNode
from repro.dd.unique_table import UniqueTable
from repro.exceptions import DDError

__all__ = ["DDPackage", "DD_COUNTER_KEYS", "merge_dd_statistics"]

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)

#: :meth:`DDPackage.statistics` keys that accumulate as counters; everything
#: else in the statistics dict is a point-in-time size.
DD_COUNTER_KEYS = ("gate_cache_hits", "gate_cache_misses")


def merge_dd_statistics(accumulator: dict, statistics: dict) -> dict:
    """Merge one :meth:`DDPackage.statistics` snapshot into an accumulator.

    Counter keys add up; the point-in-time node counts keep the most recent
    snapshot's value (the manager's per-checker totals across a batch).
    """
    for key in DD_COUNTER_KEYS:
        value = statistics.get(key)
        if value:
            accumulator[key] = accumulator.get(key, 0) + int(value)
    for kind in ("vector_nodes", "matrix_nodes"):
        if kind in statistics:
            accumulator[kind] = statistics[kind]
    return accumulator


class DDPackage:
    """A self-contained decision-diagram workspace for ``num_qubits`` qubits.

    All nodes created through one package share its unique table and compute
    tables; diagrams from different packages must not be mixed.

    ``gate_cache`` switches the per-package memo of gate DDs and operator
    chains (see :meth:`gate_cache_lookup`); off, every gate is rebuilt.
    """

    def __init__(
        self,
        num_qubits: int,
        tolerance: float = DEFAULT_TOLERANCE,
        gate_cache: bool = True,
    ):
        if num_qubits < 1:
            raise DDError("a DD package needs at least one qubit")
        self.num_qubits = num_qubits
        self.tolerance = tolerance
        self._vector_table: UniqueTable[VNode] = UniqueTable()
        self._matrix_table: UniqueTable[MNode] = UniqueTable()
        self._add_v = ComputeTable("vector-add")
        self._add_m = ComputeTable("matrix-add")
        self._mult_mv = ComputeTable("matrix-vector-multiply")
        self._mult_mm = ComputeTable("matrix-matrix-multiply")
        self._inner = ComputeTable("inner-product")
        self._norm = ComputeTable("norm-squared")
        self._max_entry = ComputeTable("max-entry")
        self._trace = ComputeTable("trace")
        self.gate_cache_enabled = gate_cache
        self._gate_cache: dict = {}
        self._gate_cache_hits = 0
        self._gate_cache_misses = 0
        self._chain_cache: dict = {}

    def __reduce__(self):
        raise TypeError(
            "DDPackage is process-local and must never be pickled; workers "
            "rebuild their own packages from the (picklable) Configuration"
        )

    # ------------------------------------------------------------------
    # terminals and node construction
    # ------------------------------------------------------------------

    @staticmethod
    def zero_vector_edge() -> VEdge:
        """The zero vector (canonical shared edge)."""
        return V_ZERO

    @staticmethod
    def zero_matrix_edge() -> MEdge:
        """The zero matrix (canonical shared edge)."""
        return M_ZERO

    def make_vector_node(self, index: int, edges: Sequence[VEdge]) -> VEdge:
        """Create (or reuse) a normalized vector node and return an edge to it."""
        edges = tuple(edges)
        if len(edges) != 2:
            raise DDError(f"vector nodes have 2 successors, got {len(edges)}")
        return self._make_vector_node(index, edges[0], edges[1])

    def make_matrix_node(self, index: int, edges: Sequence[MEdge]) -> MEdge:
        """Create (or reuse) a normalized matrix node and return an edge to it."""
        edges = tuple(edges)
        if len(edges) != 4:
            raise DDError(f"matrix nodes have 4 successors, got {len(edges)}")
        return self._make_matrix_node(index, edges[0], edges[1], edges[2], edges[3])

    def _make_vector_node(self, index: int, e0: VEdge, e1: VEdge) -> VEdge:
        """Normalize two successor edges and hash-cons the resulting node.

        The unique-table signature ``(index, id, re, im, id, re, im)`` is
        assembled in the same pass that normalizes the weights; the pivot is
        the first successor of maximal magnitude and becomes the returned
        edge's weight.
        """
        tol = self.tolerance
        w0 = e0.weight
        w1 = e1.weight
        a0 = abs(w0)
        a1 = abs(w1)
        if a0 >= a1:
            largest = a0
            pivot = w0
        else:
            largest = a1
            pivot = w1
        if largest <= tol:
            return V_ZERO
        if -tol <= w0.real <= tol and -tol <= w0.imag <= tol:
            n0 = V_ZERO
            k0 = 0
            kr0 = 0.0
            ki0 = 0.0
        else:
            nw = w0 / pivot
            n0 = VEdge(e0.node, nw)
            k0 = id(e0.node) if e0.node is not None else 0
            kr0 = round(nw.real, HASH_DECIMALS) or 0.0
            ki0 = round(nw.imag, HASH_DECIMALS) or 0.0
        if -tol <= w1.real <= tol and -tol <= w1.imag <= tol:
            n1 = V_ZERO
            k1 = 0
            kr1 = 0.0
            ki1 = 0.0
        else:
            nw = w1 / pivot
            n1 = VEdge(e1.node, nw)
            k1 = id(e1.node) if e1.node is not None else 0
            kr1 = round(nw.real, HASH_DECIMALS) or 0.0
            ki1 = round(nw.imag, HASH_DECIMALS) or 0.0
        key = (index, k0, kr0, ki0, k1, kr1, ki1)
        node = self._vector_table.get_or_create(key, index, (n0, n1), VNode)
        return VEdge(node, pivot)

    def _make_matrix_node(
        self, index: int, e0: MEdge, e1: MEdge, e2: MEdge, e3: MEdge
    ) -> MEdge:
        """Four-successor counterpart of :meth:`_make_vector_node`."""
        tol = self.tolerance
        w0 = e0.weight
        w1 = e1.weight
        w2 = e2.weight
        w3 = e3.weight
        a0 = abs(w0)
        a1 = abs(w1)
        a2 = abs(w2)
        a3 = abs(w3)
        largest = a0
        pivot = w0
        if a1 > largest:
            largest = a1
            pivot = w1
        if a2 > largest:
            largest = a2
            pivot = w2
        if a3 > largest:
            largest = a3
            pivot = w3
        if largest <= tol:
            return M_ZERO
        if -tol <= w0.real <= tol and -tol <= w0.imag <= tol:
            n0 = M_ZERO
            k0 = 0
            kr0 = 0.0
            ki0 = 0.0
        else:
            nw = w0 / pivot
            n0 = MEdge(e0.node, nw)
            k0 = id(e0.node) if e0.node is not None else 0
            kr0 = round(nw.real, HASH_DECIMALS) or 0.0
            ki0 = round(nw.imag, HASH_DECIMALS) or 0.0
        if -tol <= w1.real <= tol and -tol <= w1.imag <= tol:
            n1 = M_ZERO
            k1 = 0
            kr1 = 0.0
            ki1 = 0.0
        else:
            nw = w1 / pivot
            n1 = MEdge(e1.node, nw)
            k1 = id(e1.node) if e1.node is not None else 0
            kr1 = round(nw.real, HASH_DECIMALS) or 0.0
            ki1 = round(nw.imag, HASH_DECIMALS) or 0.0
        if -tol <= w2.real <= tol and -tol <= w2.imag <= tol:
            n2 = M_ZERO
            k2 = 0
            kr2 = 0.0
            ki2 = 0.0
        else:
            nw = w2 / pivot
            n2 = MEdge(e2.node, nw)
            k2 = id(e2.node) if e2.node is not None else 0
            kr2 = round(nw.real, HASH_DECIMALS) or 0.0
            ki2 = round(nw.imag, HASH_DECIMALS) or 0.0
        if -tol <= w3.real <= tol and -tol <= w3.imag <= tol:
            n3 = M_ZERO
            k3 = 0
            kr3 = 0.0
            ki3 = 0.0
        else:
            nw = w3 / pivot
            n3 = MEdge(e3.node, nw)
            k3 = id(e3.node) if e3.node is not None else 0
            kr3 = round(nw.real, HASH_DECIMALS) or 0.0
            ki3 = round(nw.imag, HASH_DECIMALS) or 0.0
        key = (index, k0, kr0, ki0, k1, kr1, ki1, k2, kr2, ki2, k3, kr3, ki3)
        node = self._matrix_table.get_or_create(key, index, (n0, n1, n2, n3), MNode)
        return MEdge(node, pivot)

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------

    def zero_state(self) -> VEdge:
        """The all-zeros computational basis state |0...0>."""
        return self.basis_state(0)

    def basis_state(self, value: "int | Sequence[int]") -> VEdge:
        """A computational basis state given as an integer or per-qubit bits.

        Per-qubit bit sequences must consist of 0/1 values only.
        """
        if isinstance(value, int):
            if not 0 <= value < (1 << self.num_qubits):
                raise DDError(f"basis state {value} out of range for {self.num_qubits} qubits")
            bits = [(value >> q) & 1 for q in range(self.num_qubits)]
        else:
            bits = list(value)
            if len(bits) != self.num_qubits:
                raise DDError(
                    f"expected {self.num_qubits} bits, got {len(bits)}"
                )
            for position, bit in enumerate(bits):
                if bit not in (0, 1):
                    raise DDError(
                        f"basis-state bit for qubit {position} must be 0 or 1, got {bit!r}"
                    )
        edge = V_ONE
        for qubit in range(self.num_qubits):
            if bits[qubit]:
                edge = self._make_vector_node(qubit, V_ZERO, edge)
            else:
                edge = self._make_vector_node(qubit, edge, V_ZERO)
        return edge

    def vector_from_numpy(self, amplitudes: np.ndarray) -> VEdge:
        """Build a vector DD from a dense amplitude array (little-endian)."""
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amplitudes.size != (1 << self.num_qubits):
            raise DDError(
                f"amplitude vector of length {amplitudes.size} does not match "
                f"{self.num_qubits} qubits"
            )

        def build(offset: int, level: int) -> VEdge:
            if level < 0:
                return VEdge(None, complex(amplitudes[offset]))
            half = 1 << level
            low = build(offset, level - 1)
            high = build(offset + half, level - 1)
            return self._make_vector_node(level, low, high)

        return build(0, self.num_qubits - 1)

    # ------------------------------------------------------------------
    # operator construction
    # ------------------------------------------------------------------

    def identity(self) -> MEdge:
        """The identity operator on all qubits."""
        return self.operator_chain({})

    def operator_chain(self, operators: Mapping[int, np.ndarray]) -> MEdge:
        """Tensor product of single-qubit operators (identity where omitted).

        ``operators`` maps qubit index to a ``2x2`` matrix.  Chains are
        memoized per package (DD edges are immutable, so sharing is safe):
        every controlled gate rebuilds an identity and projector chains, which
        makes this the hottest construction path of gate building.
        """
        key = None
        if self.gate_cache_enabled:
            key = tuple(
                (qubit, matrix.tobytes()) for qubit, matrix in sorted(operators.items())
            )
            cached = self._chain_cache.get(key)
            if cached is not None:
                return cached
        edge = self._build_operator_chain(operators)
        if key is not None:
            self._chain_cache[key] = edge
        return edge

    def _build_operator_chain(self, operators: Mapping[int, np.ndarray]) -> MEdge:
        edge = M_ONE
        make = self._make_matrix_node
        get = operators.get
        for qubit in range(self.num_qubits):
            matrix = get(qubit)
            node = edge.node
            weight = edge.weight
            if matrix is None:
                # Identity level: diagonal successors share the chain so far.
                diagonal = MEdge(node, weight)
                edge = make(qubit, diagonal, M_ZERO, M_ZERO, diagonal)
                continue
            if matrix.shape != (2, 2):
                raise DDError(f"operator for qubit {qubit} must be 2x2, got {matrix.shape}")
            edge = make(
                qubit,
                MEdge(node, weight * complex(matrix[0, 0])),
                MEdge(node, weight * complex(matrix[0, 1])),
                MEdge(node, weight * complex(matrix[1, 0])),
                MEdge(node, weight * complex(matrix[1, 1])),
            )
        return edge

    def controlled_gate(
        self,
        matrix: np.ndarray,
        target: int,
        controls: Mapping[int, int] | None = None,
    ) -> MEdge:
        """Matrix DD of a (multi-)controlled single-qubit gate.

        ``controls`` maps control qubits to their activation value (1 for a
        regular control, 0 for a negative control).  Without controls this is
        simply the single-qubit operator embedded into the full register.
        """
        if matrix.shape != (2, 2):
            raise DDError(f"controlled_gate expects a 2x2 matrix, got {matrix.shape}")
        if not 0 <= target < self.num_qubits:
            raise DDError(f"target qubit {target} out of range")
        controls = dict(controls or {})
        if target in controls:
            raise DDError(f"qubit {target} cannot be both control and target")
        for qubit, value in controls.items():
            if not 0 <= qubit < self.num_qubits:
                raise DDError(f"control qubit {qubit} out of range")
            if value not in (0, 1):
                raise DDError(f"control activation value must be 0 or 1, got {value}")
        if not controls:
            return self.operator_chain({target: matrix})

        projectors = {qubit: (_P1 if value else _P0) for qubit, value in controls.items()}
        active = self.operator_chain({**projectors, target: matrix})
        blocked = self.operator_chain({**projectors, target: _ID2})
        identity = self.identity()
        inactive = self.add_matrices(identity, self.scale_matrix(blocked, -1.0))
        return self.add_matrices(active, inactive)

    @staticmethod
    def scale_matrix(edge: MEdge, factor: complex) -> MEdge:
        """Multiply a matrix DD by a scalar."""
        if factor == 0 or (edge.node is None and edge.weight == 0):
            return M_ZERO
        return MEdge(edge.node, edge.weight * complex(factor))

    @staticmethod
    def scale_vector(edge: VEdge, factor: complex) -> VEdge:
        """Multiply a vector DD by a scalar."""
        if factor == 0 or (edge.node is None and edge.weight == 0):
            return V_ZERO
        return VEdge(edge.node, edge.weight * complex(factor))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add_vectors(self, left: VEdge, right: VEdge) -> VEdge:
        """Element-wise sum of two vector DDs."""
        return self._add_v_rec(left, right)

    def add_matrices(self, left: MEdge, right: MEdge) -> MEdge:
        """Element-wise sum of two matrix DDs."""
        return self._add_m_rec(left, right)

    def _add_v_rec(self, left: VEdge, right: VEdge) -> VEdge:
        """Recursive vector addition.

        The compute-table key is weight-canonical: it carries the
        right-to-left weight *ratio*, so any pair of identically-structured
        operands hits the same entry regardless of absolute scale.
        """
        lnode = left.node
        lweight = left.weight
        if lnode is None and lweight == 0:
            return right
        rnode = right.node
        rweight = right.weight
        if rnode is None and rweight == 0:
            return left
        if lnode is None or rnode is None:
            if lnode is None and rnode is None:
                return VEdge(None, lweight + rweight)
            raise DDError("cannot add diagrams of different depth")
        index = lnode.index
        if index != rnode.index:
            raise DDError(
                f"cannot add diagrams rooted at different levels "
                f"({index} vs {rnode.index})"
            )
        ratio = rweight / lweight
        key = (id(lnode), id(rnode), round(ratio.real, HASH_DECIMALS) or 0.0, round(ratio.imag, HASH_DECIMALS) or 0.0)
        table = self._add_v._table
        cached = table.get(key)
        if cached is None:
            ledges = lnode.edges
            redges = rnode.edges
            r0 = redges[0]
            r1 = redges[1]
            cached = self._make_vector_node(
                index,
                self._add_v_rec(ledges[0], VEdge(r0.node, r0.weight * ratio)),
                self._add_v_rec(ledges[1], VEdge(r1.node, r1.weight * ratio)),
            )
            table[key] = cached
        return VEdge(cached.node, cached.weight * lweight)

    def _add_m_rec(self, left: MEdge, right: MEdge) -> MEdge:
        """Recursive matrix addition (see :meth:`_add_v_rec`)."""
        lnode = left.node
        lweight = left.weight
        if lnode is None and lweight == 0:
            return right
        rnode = right.node
        rweight = right.weight
        if rnode is None and rweight == 0:
            return left
        if lnode is None or rnode is None:
            if lnode is None and rnode is None:
                return MEdge(None, lweight + rweight)
            raise DDError("cannot add diagrams of different depth")
        index = lnode.index
        if index != rnode.index:
            raise DDError(
                f"cannot add diagrams rooted at different levels "
                f"({index} vs {rnode.index})"
            )
        ratio = rweight / lweight
        key = (id(lnode), id(rnode), round(ratio.real, HASH_DECIMALS) or 0.0, round(ratio.imag, HASH_DECIMALS) or 0.0)
        table = self._add_m._table
        cached = table.get(key)
        if cached is None:
            ledges = lnode.edges
            redges = rnode.edges
            r0 = redges[0]
            r1 = redges[1]
            r2 = redges[2]
            r3 = redges[3]
            cached = self._make_matrix_node(
                index,
                self._add_m_rec(ledges[0], MEdge(r0.node, r0.weight * ratio)),
                self._add_m_rec(ledges[1], MEdge(r1.node, r1.weight * ratio)),
                self._add_m_rec(ledges[2], MEdge(r2.node, r2.weight * ratio)),
                self._add_m_rec(ledges[3], MEdge(r3.node, r3.weight * ratio)),
            )
            table[key] = cached
        return MEdge(cached.node, cached.weight * lweight)

    def multiply_matrix_vector(self, matrix: MEdge, vector: VEdge) -> VEdge:
        """Apply a matrix DD to a vector DD.

        The compute-table key carries node ids only — both root weights factor
        out of the product, so the key is fully weight-canonical.
        """
        mnode = matrix.node
        mweight = matrix.weight
        if mnode is None and mweight == 0:
            return V_ZERO
        vnode = vector.node
        vweight = vector.weight
        if vnode is None and vweight == 0:
            return V_ZERO
        if mnode is None or vnode is None:
            if mnode is None and vnode is None:
                return VEdge(None, mweight * vweight)
            raise DDError("matrix and vector diagrams must have the same depth")
        index = mnode.index
        if index != vnode.index:
            raise DDError(
                f"matrix level {index} does not match vector level "
                f"{vnode.index}"
            )
        key = (id(mnode), id(vnode))
        table = self._mult_mv._table
        cached = table.get(key)
        if cached is None:
            medges = mnode.edges
            vedges = vnode.edges
            v0 = vedges[0]
            v1 = vedges[1]
            multiply = self.multiply_matrix_vector
            cached = self._make_vector_node(
                index,
                self._add_v_rec(multiply(medges[0], v0), multiply(medges[1], v1)),
                self._add_v_rec(multiply(medges[2], v0), multiply(medges[3], v1)),
            )
            table[key] = cached
        return VEdge(cached.node, cached.weight * (mweight * vweight))

    def multiply_matrices(self, left: MEdge, right: MEdge) -> MEdge:
        """Matrix product ``left @ right`` of two matrix DDs.

        Keyed like :meth:`multiply_matrix_vector` (node ids only; weights
        factor out).
        """
        lnode = left.node
        lweight = left.weight
        if lnode is None and lweight == 0:
            return M_ZERO
        rnode = right.node
        rweight = right.weight
        if rnode is None and rweight == 0:
            return M_ZERO
        if lnode is None or rnode is None:
            if lnode is None and rnode is None:
                return MEdge(None, lweight * rweight)
            raise DDError("matrix diagrams must have the same depth")
        index = lnode.index
        if index != rnode.index:
            raise DDError(
                f"cannot multiply diagrams rooted at different levels "
                f"({index} vs {rnode.index})"
            )
        key = (id(lnode), id(rnode))
        table = self._mult_mm._table
        cached = table.get(key)
        if cached is None:
            ledges = lnode.edges
            redges = rnode.edges
            l0 = ledges[0]
            l1 = ledges[1]
            l2 = ledges[2]
            l3 = ledges[3]
            r0 = redges[0]
            r1 = redges[1]
            r2 = redges[2]
            r3 = redges[3]
            multiply = self.multiply_matrices
            add = self._add_m_rec
            cached = self._make_matrix_node(
                index,
                add(multiply(l0, r0), multiply(l1, r2)),
                add(multiply(l0, r1), multiply(l1, r3)),
                add(multiply(l2, r0), multiply(l3, r2)),
                add(multiply(l2, r1), multiply(l3, r3)),
            )
            table[key] = cached
        return MEdge(cached.node, cached.weight * (lweight * rweight))

    # ------------------------------------------------------------------
    # inner products, norms, probabilities
    # ------------------------------------------------------------------

    def inner_product(self, left: VEdge, right: VEdge) -> complex:
        """Return ``<left|right>``."""
        lnode = left.node
        if lnode is None and left.weight == 0:
            return 0.0
        rnode = right.node
        if rnode is None and right.weight == 0:
            return 0.0
        if lnode is None or rnode is None:
            if lnode is None and rnode is None:
                return left.weight.conjugate() * right.weight
            raise DDError("states must have the same number of qubits")
        if lnode.index != rnode.index:
            raise DDError("states must be rooted at the same level")
        key = (id(lnode), id(rnode))
        table = self._inner._table
        cached = table.get(key)
        if cached is None:
            cached = sum(
                self.inner_product(lnode.edges[branch], rnode.edges[branch])
                for branch in range(2)
            )
            table[key] = cached
        return left.weight.conjugate() * right.weight * cached

    def fidelity(self, left: VEdge, right: VEdge) -> float:
        """Return ``|<left|right>|**2``."""
        return abs(self.inner_product(left, right)) ** 2

    def norm_squared(self, vector: VEdge) -> float:
        """Squared Euclidean norm of a vector DD."""
        node = vector.node
        if node is None:
            weight = vector.weight
            return 0.0 if weight == 0 else abs(weight) ** 2
        key = id(node)
        table = self._norm._table
        cached = table.get(key)
        if cached is None:
            cached = sum(self.norm_squared(edge) for edge in node.edges)
            table[key] = cached
        return abs(vector.weight) ** 2 * cached

    def probability_of_one(self, vector: VEdge, qubit: int) -> float:
        """Probability that measuring ``qubit`` of ``vector`` yields 1.

        Shared nodes above the target qubit are visited once (per-call memo),
        not once per path.
        """
        if not 0 <= qubit < self.num_qubits:
            raise DDError(f"qubit {qubit} out of range")
        memo: dict[int, float] = {}

        def recurse(edge: VEdge) -> float:
            node = edge.node
            if node is None:
                if edge.weight == 0:
                    return 0.0
                raise DDError("vector does not cover the requested qubit")
            if node.index < qubit:
                raise DDError("vector does not cover the requested qubit")
            key = id(node)
            relative = memo.get(key)
            if relative is None:
                if node.index == qubit:
                    relative = self.norm_squared(node.edges[1])
                else:
                    relative = recurse(node.edges[0]) + recurse(node.edges[1])
                memo[key] = relative
            return abs(edge.weight) ** 2 * relative

        return recurse(vector)

    def collapse(
        self, vector: VEdge, qubit: int, outcome: int, probability: float | None = None
    ) -> VEdge:
        """Project ``vector`` onto ``qubit == outcome`` and renormalize."""
        if outcome not in (0, 1):
            raise DDError(f"measurement outcome must be 0 or 1, got {outcome}")
        if probability is None:
            p_one = self.probability_of_one(vector, qubit)
            probability = p_one if outcome else 1.0 - p_one
        if probability <= 0.0:
            raise DDError(f"cannot collapse onto outcome {outcome} with probability 0")
        projector = self.operator_chain({qubit: _P1 if outcome else _P0})
        projected = self.multiply_matrix_vector(projector, vector)
        return self.scale_vector(projected, 1.0 / math.sqrt(probability))

    def apply_reset(self, vector: VEdge, qubit: int) -> list[tuple[float, VEdge]]:
        """Decompose a reset of ``qubit`` into its pure branches.

        Returns ``(probability, post-reset state)`` pairs with the qubit in
        |0>; zero-probability branches are omitted.
        """
        p_one = self.probability_of_one(vector, qubit)
        branches: list[tuple[float, VEdge]] = []
        if 1.0 - p_one > 0.0:
            branches.append((1.0 - p_one, self.collapse(vector, qubit, 0, 1.0 - p_one)))
        if p_one > 0.0:
            collapsed = self.collapse(vector, qubit, 1, p_one)
            flip = self.operator_chain({qubit: _X2})
            branches.append((p_one, self.multiply_matrix_vector(flip, collapsed)))
        return branches

    # ------------------------------------------------------------------
    # matrix queries
    # ------------------------------------------------------------------

    def trace(self, matrix: MEdge) -> complex:
        """Trace of a matrix DD over the full register.

        Memoized per node, so diagrams with heavy sharing (e.g. the identity)
        are traced in time linear in their node count rather than exponential
        in the number of qubits.
        """
        node = matrix.node
        if node is None:
            weight = matrix.weight
            return 0.0 if weight == 0 else weight
        key = id(node)
        table = self._trace._table
        cached = table.get(key)
        if cached is None:
            edges = node.edges
            cached = self.trace(edges[0]) + self.trace(edges[3])
            table[key] = cached
        return matrix.weight * cached

    def max_entry_magnitude(self, matrix: MEdge) -> float:
        """Largest absolute value of any entry of the represented matrix."""
        node = matrix.node
        if node is None:
            weight = matrix.weight
            return 0.0 if weight == 0 else abs(weight)
        key = id(node)
        table = self._max_entry._table
        cached = table.get(key)
        if cached is None:
            cached = max(self.max_entry_magnitude(edge) for edge in node.edges)
            table[key] = cached
        return abs(matrix.weight) * cached

    def identity_scalar(self, matrix: MEdge, tolerance: float = 1e-7) -> complex | None:
        """Return ``c`` if the matrix equals ``c * I`` (within tolerance), else None."""

        cache: dict[int, complex | None] = {}

        def recurse(edge: MEdge) -> complex | None:
            if edge.node is None:
                weight = edge.weight
                return 0.0 if weight == 0 else weight
            key = id(edge.node)
            if key in cache:
                scalar = cache[key]
            else:
                scalar = self._identity_scalar_of_node(edge.node, tolerance, recurse)
                cache[key] = scalar
            if scalar is None:
                return None
            return edge.weight * scalar

        return recurse(matrix)

    def _identity_scalar_of_node(self, node: MNode, tolerance: float, recurse) -> complex | None:
        if self.max_entry_magnitude(node.edges[1]) > tolerance:
            return None
        if self.max_entry_magnitude(node.edges[2]) > tolerance:
            return None
        diag_low = recurse(node.edges[0])
        diag_high = recurse(node.edges[3])
        if diag_low is None or diag_high is None:
            return None
        if abs(diag_low - diag_high) > tolerance:
            return None
        return diag_low

    def is_identity(
        self, matrix: MEdge, up_to_global_phase: bool = True, tolerance: float = 1e-7
    ) -> bool:
        """Whether the matrix DD represents the identity (optionally up to phase)."""
        scalar = self.identity_scalar(matrix, tolerance)
        if scalar is None:
            return False
        if up_to_global_phase:
            return abs(abs(scalar) - 1.0) <= tolerance
        return abs(scalar - 1.0) <= tolerance

    # ------------------------------------------------------------------
    # gate cache
    # ------------------------------------------------------------------

    def gate_cache_lookup(self, key) -> MEdge | None:
        """Look up a previously built gate DD (None on miss or disabled cache).

        Keys are hashable gate descriptions — ``(gate, qubits)`` as produced by
        :func:`repro.dd.circuits.instruction_to_dd`.  Hit/miss counters feed
        :meth:`statistics`.
        """
        if not self.gate_cache_enabled:
            return None
        cached = self._gate_cache.get(key)
        if cached is None:
            self._gate_cache_misses += 1
            return None
        self._gate_cache_hits += 1
        return cached

    def gate_cache_store(self, key, edge: MEdge) -> None:
        """Memoize the matrix DD of a gate (no-op when the cache is disabled)."""
        if self.gate_cache_enabled:
            self._gate_cache[key] = edge

    # ------------------------------------------------------------------
    # conversion and inspection
    # ------------------------------------------------------------------

    def vector_to_numpy(self, vector: VEdge) -> np.ndarray:
        """Expand a vector DD into a dense amplitude array (little-endian)."""

        def recurse(edge: VEdge, level: int) -> np.ndarray:
            size = 1 << (level + 1)
            if edge.node is None and edge.weight == 0:
                return np.zeros(size, dtype=complex)
            if level < 0:
                return np.array([edge.weight], dtype=complex)
            result = np.concatenate(
                [recurse(edge.node.edges[0], level - 1), recurse(edge.node.edges[1], level - 1)]
            )
            return edge.weight * result

        return recurse(vector, self.num_qubits - 1)

    def matrix_to_numpy(self, matrix: MEdge) -> np.ndarray:
        """Expand a matrix DD into a dense array (little-endian indices)."""

        def recurse(edge: MEdge, level: int) -> np.ndarray:
            size = 1 << (level + 1)
            if edge.node is None and edge.weight == 0:
                return np.zeros((size, size), dtype=complex)
            if level < 0:
                return np.array([[edge.weight]], dtype=complex)
            blocks = [recurse(child, level - 1) for child in edge.node.edges]
            top = np.concatenate([blocks[0], blocks[1]], axis=1)
            bottom = np.concatenate([blocks[2], blocks[3]], axis=1)
            return edge.weight * np.concatenate([top, bottom], axis=0)

        return recurse(matrix, self.num_qubits - 1)

    @staticmethod
    def count_nodes(edge: "VEdge | MEdge") -> int:
        """Number of distinct nodes reachable from ``edge`` (excluding the terminal)."""
        seen: set[int] = set()

        def walk(current) -> None:
            node = current.node
            if node is None or id(node) in seen:
                return
            seen.add(id(node))
            for child in node.edges:
                walk(child)

        walk(edge)
        return len(seen)

    def statistics(self) -> dict[str, float]:
        """Table sizes and cache hit ratios (for reporting and benchmarks)."""
        return {
            "vector_nodes": len(self._vector_table),
            "matrix_nodes": len(self._matrix_table),
            "vector_unique_hit_ratio": self._vector_table.hit_ratio,
            "matrix_unique_hit_ratio": self._matrix_table.hit_ratio,
            "add_vector_cache": len(self._add_v),
            "add_matrix_cache": len(self._add_m),
            "multiply_mv_cache": len(self._mult_mv),
            "multiply_mm_cache": len(self._mult_mm),
            "trace_cache": len(self._trace),
            "chain_cache_entries": len(self._chain_cache),
            "gate_cache_entries": len(self._gate_cache),
            "gate_cache_hits": self._gate_cache_hits,
            "gate_cache_misses": self._gate_cache_misses,
            "gate_cache_hit_ratio": (
                self._gate_cache_hits / (self._gate_cache_hits + self._gate_cache_misses)
                if (self._gate_cache_hits + self._gate_cache_misses)
                else 0.0
            ),
        }

    def publish_metrics(self, registry, checker: str = "standalone") -> None:
        """Push this package's counters into a unified metrics registry.

        ``registry`` is a :class:`repro.service.metrics.MetricsRegistry`;
        the import is deferred because the DD layer sits below the service
        layer.  Checker code that hands its statistics to the manager via
        result details does not need this — the manager harvests those into
        the same series; this hook is for standalone package users (tests,
        benchmarks, notebooks) that want their runs on the same dashboard.
        """
        from repro.service.metrics import publish_dd_statistics

        publish_dd_statistics(registry, self.statistics(), checker=checker)

    def clear_caches(self) -> None:
        """Drop all compute tables and the gate cache (unique tables are kept)."""
        for table in (
            self._add_v,
            self._add_m,
            self._mult_mv,
            self._mult_mm,
            self._inner,
            self._norm,
            self._max_entry,
            self._trace,
        ):
            table.clear()
        self._gate_cache.clear()
        self._chain_cache.clear()
