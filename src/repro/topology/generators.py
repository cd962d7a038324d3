"""Non-mesh topology generators over the graph interface.

Each generator returns a :class:`GraphTopology` — an explicit
adjacency-list instance of :class:`repro.topology.base.BaseTopology` —
and registers a ``kind`` tag so :func:`repro.topology.base.topology_from_spec`
can round-trip it through the ResultStore and the campaign server:

* :func:`mesh3d` / :func:`torus3d` — 3D grids (minimal routing plus a
  recovery scheme; dimension-ordered routing without datelines is
  cyclic on the torus rings).
* :func:`circulant` — ring circulant ``C(n; s1, s2)`` (Romanov-style
  NoC rings: every node links to ``±s1`` and ``±s2`` mod ``n``).
* :func:`full_mesh` — the complete graph ``K_n``, whose per-node
  neighbor-rank ports are the case that forces per-edge opposite-port
  maps (there is no global opposite table when every node numbers its
  neighbors differently).

Ports ``0..radix-1`` are network ports, ``radix`` is the local port, as
everywhere else.  Every generator forbids self-loops and parallel edges
(one port per neighbor per node), which the fault model's
``frozenset{u, v}`` link keys require.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.base import (
    MAX_RADIX,
    BaseTopology,
    Link,
    _require_spec_fields,
    register_topology,
)


class GraphTopology(BaseTopology):
    """Adjacency-list topology: per-node port lists over a fixed radix.

    ``neighbors[u][p]`` is the node behind port ``p`` of ``u`` (or None
    for an unwired port).  The adjacency is immutable after construction
    and shared by :meth:`copy`; only the activation state is per-copy.
    """

    def __init__(
        self,
        kind: str,
        neighbors: Sequence[Sequence[Optional[int]]],
        params: Dict[str, object],
    ) -> None:
        self.kind = kind
        self.num_nodes = len(neighbors)
        self.radix = max((len(row) for row in neighbors), default=0)
        if self.radix > MAX_RADIX:
            raise ValueError(
                f"radix {self.radix} > {MAX_RADIX}: a router's ports must "
                f"fit in one byte of a source route"
            )
        self._params = dict(params)
        padded: List[Tuple[Optional[int], ...]] = []
        port_to: List[Dict[int, int]] = []
        links: Dict[Link, bool] = {}
        for u, row in enumerate(neighbors):
            full = tuple(row) + (None,) * (self.radix - len(row))
            padded.append(full)
            ports: Dict[int, int] = {}
            for p, v in enumerate(full):
                if v is None:
                    continue
                if not (0 <= v < self.num_nodes):
                    raise ValueError(f"port {p} of node {u} points outside the graph")
                if v == u:
                    raise ValueError(f"self-loop on node {u}")
                if v in ports:
                    raise ValueError(f"parallel edge {u}-{v} (ports {ports[v]} and {p})")
                ports[v] = p
                links[frozenset((u, v))] = True
            port_to.append(ports)
        for link in links:
            u, v = tuple(link)
            if u not in port_to[v] or v not in port_to[u]:
                raise ValueError(f"edge {u}-{v} is not bidirectional")
        self._neighbors = padded
        self._port_to = port_to
        self._node_active = [True] * self.num_nodes
        self._link_active = links

    # -- adjacency -------------------------------------------------------

    def neighbor(self, node: int, port: int) -> Optional[int]:
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node {node} outside graph")
        if not (0 <= port < self.radix):
            return None
        return self._neighbors[node][port]

    def port_between(self, u: int, v: int) -> int:
        port = self._port_to[u].get(v)
        if port is None:
            raise ValueError(f"nodes {u} and {v} are not adjacent")
        return port

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self._params.items()))
        return f"{self.kind}({inner})"

    def copy(self) -> "GraphTopology":
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        clone._params = dict(self._params)
        clone._node_active = list(self._node_active)
        clone._link_active = dict(self._link_active)
        return clone

    # -- canonical serialization -----------------------------------------

    def to_spec(self) -> Dict[str, object]:
        spec: Dict[str, object] = {"kind": self.kind}
        spec.update(self._params)
        spec.update(self._fault_spec())
        return spec


class Grid3D(GraphTopology):
    """Shared shape logic for the 3D mesh and torus generators.

    Ports pair up per dimension: ``2*d`` steps +1 along dimension ``d``,
    ``2*d + 1`` steps -1.  Node ids are ``x + X*(y + Y*z)``.
    """

    _PORT_NAMES = ("X+", "X-", "Y+", "Y-", "Z+", "Z-")

    def __init__(self, kind: str, dims: Tuple[int, int, int], wrap: bool) -> None:
        X, Y, Z = dims
        self.dims = (X, Y, Z)
        self.wrap = wrap
        neighbors: List[List[Optional[int]]] = []
        for z in range(Z):
            for y in range(Y):
                for x in range(X):
                    row: List[Optional[int]] = []
                    for (cx, cy, cz), size in (((1, 0, 0), X), ((0, 1, 0), Y), ((0, 0, 1), Z)):
                        for step in (1, -1):
                            nx = x + cx * step
                            ny = y + cy * step
                            nz = z + cz * step
                            if wrap:
                                nx, ny, nz = nx % X, ny % Y, nz % Z
                            if 0 <= nx < X and 0 <= ny < Y and 0 <= nz < Z:
                                row.append(nx + X * (ny + Y * nz))
                            else:
                                row.append(None)
                    neighbors.append(row)
        super().__init__(kind, neighbors, {"x": X, "y": Y, "z": Z})

    def coords3(self, node: int) -> Tuple[int, int, int]:
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node {node} outside grid")
        X, Y, _ = self.dims
        return node % X, (node // X) % Y, node // (X * Y)

    def node_id3(self, x: int, y: int, z: int) -> int:
        X, Y, Z = self.dims
        if not (0 <= x < X and 0 <= y < Y and 0 <= z < Z):
            raise ValueError(f"({x},{y},{z}) outside {X}x{Y}x{Z} grid")
        return x + X * (y + Y * z)

    def port_name(self, port: int) -> str:
        if 0 <= port < 6:
            return self._PORT_NAMES[port]
        return super().port_name(port)

    def describe_node(self, node: int) -> str:
        x, y, z = self.coords3(node)
        return f"({x},{y},{z})"

    def describe(self) -> str:
        X, Y, Z = self.dims
        return f"{X}x{Y}x{Z} {'torus' if self.wrap else 'mesh'}"


def mesh3d(x: int, y: int, z: int) -> Grid3D:
    """A healthy ``x * y * z`` 3D mesh."""
    if min(x, y, z) < 1:
        raise ValueError("3D mesh dimensions must be >= 1")
    return Grid3D("mesh3d", (x, y, z), wrap=False)


def torus3d(x: int, y: int, z: int) -> Grid3D:
    """A healthy ``x * y * z`` 3D torus.

    Each dimension must be >= 3: a size-2 ring would wire two parallel
    ports to the same neighbor, which the bidirectional-link fault model
    cannot represent.
    """
    if min(x, y, z) < 3:
        raise ValueError("3D torus dimensions must be >= 3 (no parallel edges)")
    return Grid3D("torus3d", (x, y, z), wrap=True)


def circulant(n: int, s1: int, s2: int) -> GraphTopology:
    """Ring circulant ``C(n; s1, s2)``: node ``i`` links to ``i +- s1, i +- s2``.

    Ports: 0 = ``+s1``, 1 = ``-s1``, 2 = ``+s2``, 3 = ``-s2`` — the same
    radix as the 2D mesh.  Requires ``0 < s1 < s2 < n/2`` (distinct
    generators, no self-loops, no parallel edges) and
    ``gcd(n, s1, s2) == 1`` (connectivity).
    """
    if n < 5:
        raise ValueError("circulant needs n >= 5")
    if not (0 < s1 < s2):
        raise ValueError("circulant generators must satisfy 0 < s1 < s2")
    if 2 * s2 >= n:
        raise ValueError("circulant needs s2 < n/2 (no parallel edges)")
    if gcd(gcd(n, s1), s2) != 1:
        raise ValueError(f"C({n};{s1},{s2}) is disconnected (gcd != 1)")
    neighbors = [
        [(i + s1) % n, (i - s1) % n, (i + s2) % n, (i - s2) % n] for i in range(n)
    ]
    return GraphTopology("circulant", neighbors, {"n": n, "s1": s1, "s2": s2})


def full_mesh(n: int) -> GraphTopology:
    """The complete graph ``K_n``: every node links to every other.

    Port ``p`` of node ``u`` leads to its ``p``-th neighbor in ascending
    id order (``v if v < u else v + 1`` inverted) — node-local numbering,
    so the opposite-port relation is genuinely per-edge.
    """
    if n < 2:
        raise ValueError("full mesh needs n >= 2")
    neighbors = [[v for v in range(n) if v != u] for u in range(n)]
    return GraphTopology("full_mesh", neighbors, {"n": n})


# -- spec round-trip -------------------------------------------------------


def _grid3d_from_spec(kind: str, builder, spec: Dict[str, object]) -> Grid3D:
    _require_spec_fields(spec, kind, ("x", "y", "z"), ())
    topo = builder(int(spec["x"]), int(spec["y"]), int(spec["z"]))
    topo._apply_fault_spec(spec)
    return topo


def _mesh3d_from_spec(spec: Dict[str, object]) -> Grid3D:
    return _grid3d_from_spec("mesh3d", mesh3d, spec)


def _torus3d_from_spec(spec: Dict[str, object]) -> Grid3D:
    return _grid3d_from_spec("torus3d", torus3d, spec)


def _circulant_from_spec(spec: Dict[str, object]) -> GraphTopology:
    _require_spec_fields(spec, "circulant", ("n", "s1", "s2"), ())
    topo = circulant(int(spec["n"]), int(spec["s1"]), int(spec["s2"]))
    topo._apply_fault_spec(spec)
    return topo


def _full_mesh_from_spec(spec: Dict[str, object]) -> GraphTopology:
    _require_spec_fields(spec, "full_mesh", ("n",), ())
    topo = full_mesh(int(spec["n"]))
    topo._apply_fault_spec(spec)
    return topo


register_topology("mesh3d", _mesh3d_from_spec)
register_topology("torus3d", _torus3d_from_spec)
register_topology("circulant", _circulant_from_spec)
register_topology("full_mesh", _full_mesh_from_spec)


def parse_topology(text: str) -> BaseTopology:
    """Build a healthy topology from a CLI string.

    Accepted forms: ``WxH`` or ``mesh:WxH``; ``mesh3d:XxYxZ``;
    ``torus3d:XxYxZ``; ``circulant:N,S1,S2``; ``fullmesh:N`` (alias
    ``full_mesh:N``).
    """
    from repro.topology.mesh import mesh

    text = text.strip().lower()
    if ":" in text:
        kind, _, arg = text.partition(":")
    else:
        kind, arg = "mesh", text
    try:
        if kind == "mesh":
            w, h = (int(p) for p in arg.split("x"))
            return mesh(w, h)
        if kind in ("mesh3d", "torus3d"):
            x, y, z = (int(p) for p in arg.split("x"))
            return (mesh3d if kind == "mesh3d" else torus3d)(x, y, z)
        if kind == "circulant":
            n, s1, s2 = (int(p) for p in arg.replace(",", " ").split())
            return circulant(n, s1, s2)
        if kind in ("fullmesh", "full_mesh"):
            return full_mesh(int(arg))
    except ValueError as exc:
        raise ValueError(f"bad topology argument {text!r}: {exc}") from exc
    raise ValueError(
        f"unknown topology {kind!r}; try mesh:8x8, mesh3d:4x4x4, "
        f"torus3d:4x4x4, circulant:16,1,5, or fullmesh:8"
    )
