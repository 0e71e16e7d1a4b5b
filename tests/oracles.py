"""Independent brute-force oracles.

Everything here recomputes results from first principles with plain Python
loops, deliberately avoiding the production code paths it checks. The
flat parameter vector at the end is the view the gradient, checkpoint and
determinism tests compare.
"""

import math

import numpy as np

from macroplace.netlist import KIND_STD


def hpwl_bruteforce(netlist, placement):
    total = 0.0
    for net in netlist.nets:
        if len(net.pins) < 2:
            continue
        xs, ys = [], []
        for pin in net.pins:
            x, y = placement.positions[pin.node]
            xs.append(x)
            ys.append(y)
        total += net.weight * ((max(xs) - min(xs)) + (max(ys) - min(ys)))
    return total


def _interval_overlap(a0, a1, b0, b1):
    return max(0.0, min(a1, b1) - max(a0, b0))


def footprint_raster(grid, macro, row, col, subdiv=10):
    """Covered cells via an explicit subdiv x subdiv sub-cell sweep."""
    cx = (col + 0.5) * grid.cell_w
    cy = (row + 0.5) * grid.cell_h
    x0, x1 = cx - macro.width / 2, cx + macro.width / 2
    y0, y1 = cy - macro.height / 2, cy + macro.height / 2
    tol = 1e-9 * min(grid.cell_w, grid.cell_h)
    covered = set()
    sub_w = grid.cell_w / subdiv
    sub_h = grid.cell_h / subdiv
    for r in range(grid.rows):
        for c in range(grid.cols):
            hit = False
            for sr in range(subdiv):
                for sc in range(subdiv):
                    sx0 = c * grid.cell_w + sc * sub_w
                    sy0 = r * grid.cell_h + sr * sub_h
                    if (_interval_overlap(x0, x1, sx0, sx0 + sub_w) > tol
                            and _interval_overlap(y0, y1, sy0, sy0 + sub_h) > tol):
                        hit = True
                        break
                if hit:
                    break
            if hit:
                covered.add((r, c))
    return covered


def mask_bruteforce(grid, macro):
    """Per-cell feasibility check straight from the definition."""
    feasible = {}
    tol_x = 1e-9 * max(grid.canvas_width, 1.0)
    tol_y = 1e-9 * max(grid.canvas_height, 1.0)
    for r in range(grid.rows):
        for c in range(grid.cols):
            cx = (c + 0.5) * grid.cell_w
            cy = (r + 0.5) * grid.cell_h
            inside = (
                cx - macro.width / 2 >= -tol_x
                and cx + macro.width / 2 <= grid.canvas_width + tol_x
                and cy - macro.height / 2 >= -tol_y
                and cy + macro.height / 2 <= grid.canvas_height + tol_y
            )
            if not inside:
                feasible[(r, c)] = False
                continue
            cells = footprint_raster(grid, macro, r, c, subdiv=4)
            feasible[(r, c)] = not any(grid.occupancy[rr, cc] for rr, cc in cells)
    return feasible


def congestion_fine(netlist, placement, grid, subdiv=10):
    """RUDY demand recomputed on a subdiv-times finer grid, then aggregated."""
    rows_f, cols_f = grid.rows * subdiv, grid.cols * subdiv
    cw, ch = grid.cell_w / subdiv, grid.cell_h / subdiv
    W, H = grid.canvas_width, grid.canvas_height
    dem_h = [[0.0] * cols_f for _ in range(rows_f)]
    dem_v = [[0.0] * cols_f for _ in range(rows_f)]
    for net in netlist.nets:
        if not net.pins:
            continue
        xs = [placement.positions[p.node][0] for p in net.pins]
        ys = [placement.positions[p.node][1] for p in net.pins]
        bw = min(max(max(xs) - min(xs), grid.cell_w), W)
        bh = min(max(max(ys) - min(ys), grid.cell_h), H)
        bx = min(max((min(xs) + max(xs)) / 2 - bw / 2, 0.0), W - bw)
        by = min(max((min(ys) + max(ys)) / 2 - bh / 2, 0.0), H - bh)
        for r in range(rows_f):
            oy = _interval_overlap(by, by + bh, r * ch, (r + 1) * ch)
            if oy <= 0:
                continue
            for c in range(cols_f):
                ox = _interval_overlap(bx, bx + bw, c * cw, (c + 1) * cw)
                if ox <= 0:
                    continue
                frac = ox * oy / (bw * bh)
                dem_h[r][c] += net.weight / bh * frac
                dem_v[r][c] += net.weight / bw * frac
    # Aggregate fine cells back onto the evaluation grid.
    agg_h = [[0.0] * grid.cols for _ in range(grid.rows)]
    agg_v = [[0.0] * grid.cols for _ in range(grid.rows)]
    for r in range(rows_f):
        for c in range(cols_f):
            agg_h[r // subdiv][c // subdiv] += dem_h[r][c]
            agg_v[r // subdiv][c // subdiv] += dem_v[r][c]
    return agg_h, agg_v


def density_overflow_fine(netlist, placement, grid, target_density, subdiv=10):
    """Cell area sums recomputed on a finer raster, overflow on grid cells."""
    rows_f, cols_f = grid.rows * subdiv, grid.cols * subdiv
    cw, ch = grid.cell_w / subdiv, grid.cell_h / subdiv
    area_f = [[0.0] * cols_f for _ in range(rows_f)]
    movable_total = 0.0
    for node in netlist.nodes:
        if node.kind == "terminal":
            continue
        if node.movable:
            movable_total += node.width * node.height
        if not placement.placed[node.id]:
            continue
        x, y = placement.positions[node.id]
        x0, x1 = x - node.width / 2, x + node.width / 2
        y0, y1 = y - node.height / 2, y + node.height / 2
        for r in range(rows_f):
            oy = _interval_overlap(y0, y1, r * ch, (r + 1) * ch)
            if oy <= 0:
                continue
            for c in range(cols_f):
                ox = _interval_overlap(x0, x1, c * cw, (c + 1) * cw)
                if ox > 0:
                    area_f[r][c] += ox * oy
    if movable_total <= 0:
        return 0.0
    cell_area = grid.cell_w * grid.cell_h
    overflow = 0.0
    for r in range(grid.rows):
        for c in range(grid.cols):
            s = 0.0
            for sr in range(subdiv):
                for sc in range(subdiv):
                    s += area_f[r * subdiv + sr][c * subdiv + sc]
            overflow += max(0.0, s - target_density * cell_area)
    return overflow / movable_total


def top_fraction_mean_sorted(values, capacity, top_fraction):
    """Full-sort route for the congestion score reduction."""
    ratios = sorted((max(0.0, v - capacity) / capacity for v in values), reverse=True)
    k = math.ceil(top_fraction * len(ratios))
    return sum(ratios[:k]) / k


def laplacian_5pt(psi, dx, dy):
    """Zero-Neumann 5-point Laplacian with mirrored ghost cells."""
    rows = len(psi)
    cols = len(psi[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            up = psi[i - 1][j] if i > 0 else psi[i][j]
            dn = psi[i + 1][j] if i < rows - 1 else psi[i][j]
            lf = psi[i][j - 1] if j > 0 else psi[i][j]
            rt = psi[i][j + 1] if j < cols - 1 else psi[i][j]
            out[i][j] = (lf + rt - 2 * psi[i][j]) / dx**2 + (up + dn - 2 * psi[i][j]) / dy**2
    return out


def poisson_residual(field):
    """Max-norm residual of the discrete Poisson relation the solver targets."""
    psi = field.psi
    up = np.vstack([psi[:1], psi[:-1]])
    dn = np.vstack([psi[1:], psi[-1:]])
    lf = np.hstack([psi[:, :1], psi[:, :-1]])
    rt = np.hstack([psi[:, 1:], psi[:, -1:]])
    lap = (lf + rt - 2 * psi) / field.bin_w**2 + (up + dn - 2 * psi) / field.bin_h**2
    src = field.rho - field.rho.mean()
    return float(np.abs(lap + src).max())


def solve_poisson_scipy(rho, bin_w, bin_h):
    """The Poisson solve through `scipy.fft`'s fast DCT-II pair, as the
    placer ran it before its dense basis matrix: transform rho - mean,
    divide by the mirrored 5-point Laplacian's eigenvalues, negate, drop
    the DC mode and transform back."""
    from scipy.fft import dctn, idctn

    bins = rho.shape[0]
    k = np.arange(bins)
    lam_x = (2.0 * np.cos(np.pi * k / bins) - 2.0) / bin_w**2
    lam_y = (2.0 * np.cos(np.pi * k / bins) - 2.0) / bin_h**2
    denom = lam_y[:, None] + lam_x[None, :]
    denom[0, 0] = 1.0
    psi_hat = -dctn(rho - rho.mean(), type=2, norm="ortho") / denom
    psi_hat[0, 0] = 0.0
    return idctn(psi_hat, type=2, norm="ortho")


# --- Loop references -------------------------------------------------------
# The per-net and per-node loops that the CSR net kernel and the shared
# rasterizer replaced, kept verbatim. The rasterizer's per-axis overlap
# lengths must equal `_axis_overlap`'s bit for bit; its maps, the smooth-WL
# and the density-gradient kernels reassociate float sums, so they match
# these to rounding.


def _axis_overlap(lo: float, hi: float, cell: float, count: int):
    """Overlap length of [lo, hi] with each grid cell along one axis.

    Returns (first cell index, overlap-length vector)."""
    first = max(int(math.floor(lo / cell)), 0)
    last = min(int(math.ceil(hi / cell)) - 1, count - 1)
    if last < first:
        return 0, np.zeros(0)
    idx = np.arange(first, last + 1)
    return first, np.minimum(hi, (idx + 1) * cell) - np.maximum(lo, idx * cell)


def _axis_extent_and_grad(coords, gamma):
    """Smoothed (max - min) over one axis plus d/dcoords."""
    p = len(coords)
    hi = coords.max()
    lo = coords.min()
    e_hi = np.exp((coords - hi) / gamma)
    e_lo = np.exp(-(coords - lo) / gamma)
    s_hi = e_hi.sum()
    s_lo = e_lo.sum()
    extent = (
        (hi - lo)
        + gamma * (np.log(s_hi) - np.log(p))
        + gamma * (np.log(s_lo) - np.log(p))
    )
    grad = e_hi / s_hi - e_lo / s_lo
    return extent, grad


def smooth_wl_loop(netlist, placement, gamma):
    """Per-net log-sum-exp wirelength and gradient, pins at node centers."""
    value = 0.0
    grad = np.zeros_like(placement.positions)
    for net in netlist.nets:
        if len(net.pins) < 2:
            continue
        ids = np.fromiter((p.node for p in net.pins), dtype=np.int64,
                          count=len(net.pins))
        pts = placement.positions[ids]
        for axis in (0, 1):
            extent, g = _axis_extent_and_grad(pts[:, axis], gamma)
            value += net.weight * extent
            np.add.at(grad[:, axis], ids, net.weight * g)
    return float(value), grad


def rasterize_area_loop(netlist, placement, rows, cols, cell_w, cell_h):
    """Per-node area raster (terminals excluded)."""
    area = np.zeros((rows, cols))
    for node in netlist.nodes:
        if node.kind == "terminal" or not placement.placed[node.id]:
            continue
        x, y = placement.positions[node.id]
        c0, wx = _axis_overlap(x - node.width / 2, x + node.width / 2, cell_w, cols)
        r0, wy = _axis_overlap(y - node.height / 2, y + node.height / 2, cell_h, rows)
        if len(wx) == 0 or len(wy) == 0:
            continue
        area[r0:r0 + len(wy), c0:c0 + len(wx)] += np.outer(wy, wx)
    return area


def congestion_map_loop(netlist, placement, grid):
    """Per-net RUDY demand maps (demand_h, demand_v)."""
    demand_h = np.zeros((grid.rows, grid.cols))
    demand_v = np.zeros((grid.rows, grid.cols))
    W, H = grid.canvas_width, grid.canvas_height

    for net in netlist.nets:
        if not net.pins:
            continue
        ids = [p.node for p in net.pins]
        pts = placement.positions[ids]
        x0, x1 = pts[:, 0].min(), pts[:, 0].max()
        y0, y1 = pts[:, 1].min(), pts[:, 1].max()
        # Clamp the box to at least one cell per axis, then shift on-canvas.
        bw = min(max(x1 - x0, grid.cell_w), W)
        bh = min(max(y1 - y0, grid.cell_h), H)
        bx = min(max((x0 + x1) / 2 - bw / 2, 0.0), W - bw)
        by = min(max((y0 + y1) / 2 - bh / 2, 0.0), H - bh)

        c0, wx = _axis_overlap(bx, bx + bw, grid.cell_w, grid.cols)
        r0, wy = _axis_overlap(by, by + bh, grid.cell_h, grid.rows)
        if len(wx) == 0 or len(wy) == 0:
            continue
        frac = np.outer(wy, wx) / (bw * bh)  # overlap-area fractions, sums to 1
        demand_h[r0:r0 + len(wy), c0:c0 + len(wx)] += net.weight / bh * frac
        demand_v[r0:r0 + len(wy), c0:c0 + len(wx)] += net.weight / bw * frac
    return demand_h, demand_v


def density_energy_and_grad_loop(field, netlist, placement, movable_only=True):
    """The field's electrostatic energy 0.5 * sum(rho * psi) * bin_w * bin_h
    and its per-node gradient over the exact overlap derivative."""
    bins = field.bins
    psi = field.psi
    energy = 0.5 * float((field.rho * psi).sum()) * (field.bin_w * field.bin_h)
    grad = np.zeros_like(placement.positions)
    s = field.norm_scale

    charge_nodes = [n for n in netlist.nodes
                    if n.kind != "terminal" and placement.placed[n.id]]
    for node in charge_nodes:
        if movable_only and not node.movable:
            continue
        x, y = placement.positions[node.id]
        x0, x1 = x - node.width / 2, x + node.width / 2
        y0, y1 = y - node.height / 2, y + node.height / 2
        c0, wx = _axis_overlap(x0, x1, field.bin_w, bins)
        r0, wy = _axis_overlap(y0, y1, field.bin_h, bins)
        if len(wx) == 0 or len(wy) == 0:
            continue
        # d(overlap_x)/dx per column: +1 where the right edge lies strictly
        # inside the column, -1 where the left edge does.
        cols = np.arange(c0, c0 + len(wx))
        rows = np.arange(r0, r0 + len(wy))
        dwx = np.zeros(len(wx))
        dwx += (x1 > cols * field.bin_w) & (x1 < (cols + 1) * field.bin_w)
        dwx -= (x0 > cols * field.bin_w) & (x0 < (cols + 1) * field.bin_w)
        dwy = np.zeros(len(wy))
        dwy += (y1 > rows * field.bin_h) & (y1 < (rows + 1) * field.bin_h)
        dwy -= (y0 > rows * field.bin_h) & (y0 < (rows + 1) * field.bin_h)
        patch = psi[r0:r0 + len(wy), c0:c0 + len(wx)]
        grad[node.id, 0] = s * float(wy @ patch @ dwx)
        grad[node.id, 1] = s * float(dwy @ patch @ wx)
    return energy, grad


def field_move_loop(field, netlist, placement):
    """The force-directed engine's field move, per node: -g_i / (s * a_i *
    rho_bar) for every placed charge-carrying node, with g_i its row of
    `density_energy_and_grad_loop`, s the field's `norm_scale`, a_i its area
    and rho_bar the placed charge area over the canvas area. Other rows are
    0."""
    _, grad = density_energy_and_grad_loop(field, netlist, placement, movable_only=False)
    charge_nodes = [n for n in netlist.nodes
                    if n.kind != "terminal" and placement.placed[n.id]]
    mean_density = sum(n.width * n.height for n in charge_nodes) / (
        netlist.canvas_width * netlist.canvas_height)
    move = np.zeros_like(grad)
    for node in charge_nodes:
        move[node.id] = -grad[node.id] / (
            field.norm_scale * node.width * node.height * mean_density)
    return move


def edge_slope_reference(lo, hi, cell: float, count: int) -> np.ndarray:
    """(n, count) d(overlap of [lo + t, hi + t] with each cell)/dt along one
    axis: +1 in the cell whose interior holds the upper edge, -1 in the
    cell whose interior holds the lower edge."""
    idx = np.arange(count)
    left = idx * cell
    right = (idx + 1) * cell
    upper = (hi[:, None] > left) & (hi[:, None] < right)
    lower = (lo[:, None] > left) & (lo[:, None] < right)
    return upper.astype(np.float64) - lower


def density_grad_dense_slopes(field):
    """The density gradient through dense (m, bins) edge-slope matrices per
    axis: s * row sums of (wy @ psi) * dwx and (dwy @ psi) * wx. The
    gathered kernel `density.density_energy_and_grad` must equal it bit
    for bit."""
    bins = field.bins
    dwx = edge_slope_reference(field.lo[:, 0], field.hi[:, 0], field.bin_w, bins)
    dwy = edge_slope_reference(field.lo[:, 1], field.hi[:, 1], field.bin_h, bins)
    s = field.norm_scale
    return np.stack([s * ((field.wy @ field.psi) * dwx).sum(axis=1),
                     s * ((dwy @ field.psi) * field.wx).sum(axis=1)], axis=1)


def clique_graph_loop(netlist):
    """Clique-model graph of the nets through a dict: w/(p-1) between every
    pin pair of a p-pin net, parallel edges merged by weight summation.
    Returns (num_nodes, edges_i, edges_j, weights) with the edges sorted."""
    acc: dict[tuple[int, int], float] = {}
    for net in netlist.nets:
        p = len(net.pins)
        if p < 2:
            continue
        w = net.weight / (p - 1)
        for i in range(p):
            for j in range(i + 1, p):
                a, b = net.pins[i].node, net.pins[j].node
                if a == b:
                    continue
                key = (a, b) if a < b else (b, a)
                acc[key] = acc.get(key, 0.0) + w

    if acc:
        keys = sorted(acc)
        ei = np.array([k[0] for k in keys], dtype=np.int64)
        ej = np.array([k[1] for k in keys], dtype=np.int64)
        ew = np.array([acc[k] for k in keys])
    else:
        ei = np.zeros(0, dtype=np.int64)
        ej = np.zeros(0, dtype=np.int64)
        ew = np.zeros(0)
    return netlist.num_nodes, ei, ej, ew


def node_degrees_loop(netlist):
    """Nets incident to each node, a node listed twice on a net counted once."""
    deg = np.zeros(netlist.num_nodes, dtype=np.int64)
    for net in netlist.nets:
        for node_id in {p.node for p in net.pins}:
            deg[node_id] += 1
    return deg


def fd_system_loop(graph, movable_ids, positions, anchor_w):
    """Force-directed linear system assembled per edge through dicts and
    lists: the movable-block Laplacian plus `anchor_w` on its diagonal, as
    the CSR matrix `csr_matrix` builds from COO lists, and the fixed-anchor
    right-hand side."""
    from scipy.sparse import csr_matrix

    idx_of = {int(nid): k for k, nid in enumerate(movable_ids)}
    m = len(movable_ids)

    # Assemble the movable-block Laplacian and fixed-anchor contributions.
    diag = np.zeros(m)
    off_entries = {}
    fixed_w = [[] for _ in range(m)]  # (weight, fixed node id)
    for i, j, w in zip(graph.edges_i, graph.edges_j, graph.weights):
        i, j, w = int(i), int(j), float(w)
        mi, mj = idx_of.get(i), idx_of.get(j)
        if mi is not None and mj is not None:
            diag[mi] += w
            diag[mj] += w
            key = (mi, mj) if mi < mj else (mj, mi)
            off_entries[key] = off_entries.get(key, 0.0) - w
        elif mi is not None:
            diag[mi] += w
            fixed_w[mi].append((w, j))
        elif mj is not None:
            diag[mj] += w
            fixed_w[mj].append((w, i))

    fixed_rhs = np.zeros((m, 2))
    for k in range(m):
        for w, j in fixed_w[k]:
            fixed_rhs[k] += w * positions[j]

    off_rows = []
    off_cols = []
    off_vals = []
    for (a, b), w in off_entries.items():
        off_rows += [a, b]
        off_cols += [b, a]
        off_vals += [w, w]

    A = csr_matrix(
        (off_vals + list(diag + anchor_w),
         (off_rows + list(range(m)), off_cols + list(range(m)))),
        shape=(m, m),
    )
    return A, fixed_rhs


def fd_anchor_weights_loop(graph, movable_ids, t):
    """Per-node anchor weights of a force-directed iteration at t: degree * t
    on clusters a fixed node reaches through the graph; degree (1 if the
    degree is 0) on the others, whose weight does not ramp."""
    idx_of = {int(nid): k for k, nid in enumerate(movable_ids)}
    m = len(movable_ids)
    degree = [0.0] * m
    neighbours = [[] for _ in range(m)]
    reached = [False] * m
    for i, j, w in zip(graph.edges_i, graph.edges_j, graph.weights):
        mi, mj = idx_of.get(int(i)), idx_of.get(int(j))
        for a, b in ((mi, mj), (mj, mi)):
            if a is None:
                continue
            degree[a] += float(w)
            if b is None:
                reached[a] = True
            else:
                neighbours[a].append(b)
    stack = [k for k in range(m) if reached[k]]
    while stack:
        for b in neighbours[stack.pop()]:
            if not reached[b]:
                reached[b] = True
                stack.append(b)
    return np.array([degree[k] * t if reached[k] else (degree[k] or 1.0)
                     for k in range(m)])


def greedy_merge_bruteforce(netlist, k):
    """Greedy heavy-edge coarsening of the std cells by exhaustive scan.

    Pair weight: w/(p-1) per pin pair of a p-pin net on two different
    cells, summed in net order. Each step scans every live pair for the
    largest w/(area_a + area_b), ties toward the smallest (lo, hi); it stops
    at a score <= 0, then merges the two lowest-id groups until k remain. A merge keeps the
    lower id, adds the higher group's area and pair weights to it, and
    keeps its own weights first in each sum. Returns [(members, area)] in
    group-id order.
    """
    members = {n.id: [n.id] for n in netlist.nodes if n.kind == KIND_STD}
    area = {i: netlist.nodes[i].width * netlist.nodes[i].height for i in members}
    weight = {}  # (lo, hi) -> connectivity
    for net in netlist.nets:
        if len(net.pins) < 2:
            continue
        cells = [pin.node for pin in net.pins if pin.node in members]
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                if a != b:
                    key = (min(a, b), max(a, b))
                    weight[key] = weight.get(key, 0.0) + net.weight / (len(net.pins) - 1)

    def merge(a, b):
        members[a] += members.pop(b)
        area[a] += area.pop(b)
        for (x, y), w in list(weight.items()):
            if b not in (x, y):
                continue
            del weight[x, y]
            other = x if y == b else y
            if other != a:
                key = (min(a, other), max(a, other))
                weight[key] = weight.get(key, 0.0) + w

    while len(members) > k:
        top = None
        for (x, y), w in weight.items():
            s = w / (area[x] + area[y])
            if top is None or s > top[0] or (s == top[0] and (x, y) < top[1]):
                top = (s, (x, y))
        if top is None or top[0] <= 0.0:
            break
        merge(*top[1])
    while len(members) > k:
        merge(*sorted(members)[:2])
    return [(tuple(sorted(members[g])), area[g]) for g in sorted(members)]


def sim_anneal_rebuild_loop(env, moves, seed=0, mask=None):
    """`baseline_sim_anneal` as a per-move rebuild: each move places every
    macro but the drawn one on an empty grid again, in macro order, and
    draws from that grid's mask (`mask`, default `grid.feasibility_mask`).
    Returns the BaselineResult and each move's outcome, "accept", "reject"
    or "skip"."""
    from macroplace.agent.baselines import SA_ALPHA, SA_T0, BaselineResult
    from macroplace.env import rollout, uniform_random_policy
    from macroplace.grid import Grid, feasibility_mask, place_on_grid

    mask = mask or feasibility_mask
    rng = np.random.default_rng(np.random.SeedSequence([seed, 991]))
    start = rollout(env, uniform_random_policy, np.random.SeedSequence([seed, 0]))
    cells = [s.action for s in start.steps]
    cost = -start.reward
    rewards = [start.reward]
    best_cells, best_cost, best_placement = list(cells), cost, start.final_placement
    rows, cols = env.config.grid_rows, env.config.grid_cols
    outcomes = []
    for move in range(moves):
        k = int(rng.integers(len(cells)))
        grid = Grid.empty(rows, cols, env.pnet.canvas_width, env.pnet.canvas_height)
        placement = env.start_placement()
        for j, cell in enumerate(cells):
            if j == k:
                continue
            pid = env.macro_order[j]
            grid, (x, y) = place_on_grid(grid, env.pnet.nodes[pid], *divmod(cell, cols))
            placement.positions[pid] = (x, y)
            placement.placed[pid] = True
        macro = env.pnet.nodes[env.macro_order[k]]
        choices = np.flatnonzero(mask(grid, macro))
        if len(choices) == 0:
            outcomes.append("skip")
            continue
        proposal = list(cells)
        proposal[k] = int(rng.choice(choices))
        _, (x, y) = place_on_grid(grid, macro, *divmod(proposal[k], cols))
        placement.positions[macro.id] = (x, y)
        placement.placed[macro.id] = True
        placement, metrics = env.finish(placement)
        rewards.append(metrics.reward)
        new_cost = -metrics.reward
        t = SA_T0 * SA_ALPHA**move
        accept = new_cost < cost or (
            t > 0 and rng.random() < np.exp(-(new_cost - cost) / t))
        outcomes.append("accept" if accept else "reject")
        if accept:
            cells, cost = proposal, new_cost
            if new_cost < best_cost:
                best_cells, best_cost, best_placement = list(cells), new_cost, placement
    result = BaselineResult(best_reward=-best_cost, best_actions=best_cells,
                            best_placement=best_placement, rewards=rewards)
    return result, outcomes


def in_canvas(netlist, placement, tol=1e-9):
    """True if every placed node's bounding box lies within the canvas."""
    pad = tol * max(netlist.canvas_width, netlist.canvas_height, 1.0)
    for node in netlist.nodes:
        if not placement.placed[node.id]:
            continue
        x, y = placement.positions[node.id]
        if x - node.width / 2 < -pad or x + node.width / 2 > netlist.canvas_width + pad:
            return False
        if y - node.height / 2 < -pad or y + node.height / 2 > netlist.canvas_height + pad:
            return False
    return True


def params_to_vector(params):
    """Every array of a PolicyParams, flattened and concatenated in key order."""
    return np.concatenate([params.arrays[k].ravel() for k in sorted(params.arrays)])


def params_from_vector(params, vec):
    """A copy of `params` whose arrays are read back from `params_to_vector`'s layout."""
    out = params.copy()
    pos = 0
    for k in sorted(out.arrays):
        size = out.arrays[k].size
        out.arrays[k] = vec[pos:pos + size].reshape(out.arrays[k].shape).copy()
        pos += size
    return out
