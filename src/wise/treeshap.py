"""Exact interventional Shapley attributions for single decision trees.

For a fixed (explained row x, reference row z) pair, the coalition value
v(S) is the tree output when features in S take x's values and the rest
take z's.  Whether a leaf is reached under S depends only on which path
features are forced to follow x (the leaf's value survives iff they all
route toward the leaf) and which are forced to follow z.  Per leaf this
is a conjunction game over the path's distinguishing features - features
where exactly one of x, z routes toward the leaf - and the Shapley value
of a conjunction game has a closed form in the counts (a, b) of
x-aligned and z-aligned distinguishing features:

    phi_f = value * (a-1)! b! / (a+b)!     if f is x-aligned
    phi_f = -value * a! (b-1)! / (a+b)!    if f is z-aligned

Features where neither row routes toward the leaf make it unreachable
under every coalition.  Summing over leaves and averaging over the
background set gives the interventional attribution; the brute-force
coalition oracle in the test suite is the arbiter for this algebra.

One walk of the tree serves every leaf, and one vectorized pass serves
the whole tree.  The explained and background rows are routed together,
once per internal node, and each child inherits per-feature "follows"
masks (a feature split twice on a path ANDs its masks).  The masks of
all L leaves are stacked into one (L, Q, rows) array: a leaf's path
features fill its first slots in ascending order, and every other slot
is followed by every row, so it counts toward no reach, a or b.  A pair
(x, z) reaches a leaf iff no slot is unfollowed by both; there a counts
the slots z does not follow and b those x does not follow.  Explained
rows with the same follow pattern at a leaf share every term, so one
sort of (leaf, packed pattern) keys leaves each distinct pattern to be
attributed once, and one weight table of the tree's largest Q serves
every leaf (the factorial prefix does not depend on q).

The stacking changes no floating-point reduction.  Each (pattern, path
feature) term is still the mean of the same per-reference vector along
a contiguous last axis.  The vector of a feature x does not follow is
zero minus wb wherever the pair is reachable (its positive part is
provably zero), the same for every such feature, so it is averaged once
per pattern.  Contributions enter phi leaf by leaf in walk order.  The
attributions are therefore bit-identical to a per-leaf, per-row
evaluation (the per-leaf reference in the test suite checks this) and
do not depend on how rows group.  The background rows' leaves, read off
the same stack, give the base value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .forest import TreeNode


@dataclass
class GlobalAttribution:
    s: np.ndarray
    explained_count: int


def _weight_tables(q: int):
    fact = np.ones(2 * q + 1)
    for i in range(1, 2 * q + 1):
        fact[i] = fact[i - 1] * i
    a = np.arange(q + 1)[:, None]
    b = np.arange(q + 1)[None, :]
    denom = fact[a + b]
    with np.errstate(divide="ignore", invalid="ignore"):
        wa = np.where(a >= 1, fact[np.maximum(a - 1, 0)] * fact[b] / denom, 0.0)
        wb = np.where(b >= 1, fact[a] * fact[np.maximum(b - 1, 0)] / denom, 0.0)
    return wa, wb


def _leaves(node: TreeNode, XZ: np.ndarray, follows: dict, out: list) -> list:
    """Append (leaf value, follows) for every leaf to ``out``, left subtree first.

    ``follows[f]`` says, per row of XZ, whether the row routes toward the
    leaf at every split on feature f along its path.  Each internal node
    routes all rows once; a feature that repeats on a path ANDs its masks.
    Nodes are read by ``TreeNode``'s interface alone (``is_leaf``,
    ``value``, ``feature``, ``goes_left``, ``left``, ``right``).
    """
    if node.is_leaf:
        out.append((node.value, follows))
        return out
    f = node.feature
    left = node.goes_left(XZ[:, f])
    for child, side in ((node.left, left), (node.right, ~left)):
        below = dict(follows)
        below[f] = follows[f] & side if f in follows else side
        _leaves(child, XZ, below, out)
    return out


def _patterns(FX: np.ndarray):
    """Distinct (leaf, follow pattern) pairs of the explained rows.

    FX is (L, Q, E).  Returns one flat (leaf, row) index per distinct
    pair and each (leaf, row)'s pair number.  The sort key is an int64
    when leaf and pattern bits fit, else a byte string (leaf index, then
    the packed pattern).
    """
    L, Q, E = FX.shape
    if Q + L.bit_length() < 63:
        bits = np.left_shift(1, np.arange(Q, dtype=np.int64))
        pattern = (FX * bits[:, None]).sum(axis=1)
        keys = (np.left_shift(np.arange(L, dtype=np.int64), Q)[:, None] | pattern).ravel()
    else:
        packed = np.packbits(FX, axis=1).transpose(0, 2, 1)
        leaf = np.arange(L, dtype=">i8").view(np.uint8).reshape(L, 1, 8)
        keys = np.concatenate([np.broadcast_to(leaf, (L, E, 8)), packed], axis=2).reshape(L * E, -1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    order = keys.argsort()
    ranked = keys[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return order[new], inverse


def _pattern_terms(nfx, real, nfz, cell, wa, nwb):
    """Mean per-reference term of every (pattern, path slot) over the background.

    nfx (P, Q): slots the pattern's explained rows do not follow; real
    (P, Q): slots that hold a path feature of the pattern's leaf; nfz
    (P, Q, G): slots each reference does not follow, for that leaf; cell
    (P, G): the references' a times the width of the flat weight tables
    wa and nwb (= -wb), whose entry 0 (a = b = 0) is zero.
    """
    # reach[p, g]: no slot is unfollowed by both rows; there a counts the
    # slots only x follows and b those only z follows
    reach = ~(nfx[:, :, None] & nfz).any(axis=1)
    # an unreached pair reads entry 0, the zero term
    cell = (cell + nfx.sum(axis=1)[:, None]) * reach
    # every slot x does not follow has the same terms: no positive part, -wb
    terms = np.empty(nfx.shape)
    terms[:] = nwb.take(cell).mean(axis=1)[:, None]
    p, s = (real & ~nfx).nonzero()
    cell = cell[p]
    cell *= nfz[p, s]
    terms[p, s] = wa.take(cell).mean(axis=1)
    return terms


# patterns go through _pattern_terms in blocks of about this many (pattern,
# slot, reference) elements, which bounds its temporaries at a few MB
_BLOCK = 1 << 16


def shap_matrix(
    root: TreeNode,
    rows: np.ndarray,
    background: np.ndarray,
    output_index: int | None = None,
):
    """Interventional Shapley values for many rows at once.

    Returns (phi, base_value) with phi of shape (len(rows), d) and
    base_value the mean tree output over the background set.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    if background.shape[0] == 0:
        raise DataError("background set must be non-empty")
    if rows.shape[1] != background.shape[1]:
        raise DataError("explained rows and background disagree on feature count")
    n_expl, d = rows.shape
    XZ = np.concatenate([rows, background])
    leaves = _leaves(root, XZ, {}, [])

    # F[l, s]: follow mask of leaf l's s-th path feature (ascending); unused
    # slots are followed by every row, so they count toward neither a nor b
    masks, slot_leaf, slot, feature = [], [], [], []
    for l, (_, follows) in enumerate(leaves):
        feats = sorted(follows)
        masks += [follows[f] for f in feats]
        slot_leaf += [l] * len(feats)
        slot += range(len(feats))
        feature += feats
    L = len(leaves)
    Q = max(slot, default=-1) + 1
    F = np.ones((L, Q, XZ.shape[0]), dtype=bool)
    real = np.zeros((L, Q), dtype=bool)
    if masks:
        F[slot_leaf, slot] = masks
        real[slot_leaf, slot] = True

    values = np.array([value for value, _ in leaves], dtype=np.float64)
    if values.ndim == 2:
        if output_index is None:
            raise ConfigError("classification tree needs an explanation output index")
        values = values[:, output_index]
    # each background row reaches exactly the leaf whose path it follows throughout
    base_value = float(values[F[:, :, n_expl:].all(axis=1).argmax(axis=0)].mean())
    if not Q:
        return np.zeros((n_expl, d)), base_value  # depth-0 tree: constant, no attribution

    # explained rows of one leaf with the same follow pattern share every term
    first, inverse = _patterns(F[:, :, :n_expl])
    leaf_of, row_of = np.divmod(first, n_expl)
    nfx = ~F[leaf_of, :, row_of]                          # (P, Q)
    nfz = ~F[:, :, n_expl:]                               # (L, Q, G)
    wa, wb = _weight_tables(Q)
    cell = nfz.sum(axis=1) * wa.shape[1]                  # flat table row of each a
    wa, nwb = wa.ravel(), 0.0 - wb.ravel()
    terms = np.empty(nfx.shape)
    step = max(1, _BLOCK // nfz[0].size)
    for lo in range(0, terms.shape[0], step):
        at = leaf_of[lo : lo + step]
        terms[lo : lo + step] = _pattern_terms(nfx[lo : lo + step], real[at], nfz[at], cell[at],
                                               wa, nwb)
    terms *= values[leaf_of][:, None]

    # bincount adds in index order: phi[i, f] sums its leaves' terms in walk order
    slot_leaf, slot = np.array(slot_leaf), np.array(slot)
    contrib = terms.ravel().take(inverse.reshape(L, n_expl)[slot_leaf] * Q + slot[:, None])
    cells = np.arange(n_expl) * d + np.array(feature)[:, None]
    phi = np.bincount(cells.ravel(), weights=contrib.ravel(), minlength=n_expl * d)
    return phi.reshape(n_expl, d), base_value


def aggregate_global(
    root: TreeNode,
    explain_rows: np.ndarray,
    background: np.ndarray,
    output_index: int | None = None,
) -> GlobalAttribution:
    """Mean absolute attribution over an explain set: s[k] = mean |phi_k|."""
    explain_rows = np.atleast_2d(explain_rows)
    if explain_rows.shape[0] == 0:
        raise DataError("explain set must be non-empty")
    phi, _ = shap_matrix(root, explain_rows, background, output_index)
    return GlobalAttribution(s=np.abs(phi).mean(axis=0), explained_count=explain_rows.shape[0])
