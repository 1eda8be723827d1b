"""Last-step TCNNet/SeqNet against the full-sequence reference.

The ``_ref_*`` functions are the forward and backward passes the sequence
models had before ``predict``/``loss_and_grad`` narrowed to the last step:
every layer covers every step, the head runs on all of them, the loss
gradient is zero except at the last step, and weight gradients are
``np.einsum`` contractions.  They read the parameters of a live model, so
each test compares the current model with the reference on the same
weights: predictions, loss and the flat gradient at rel 1e-10.
"""

import math

import numpy as np
import pytest

from gradcheck import forward_seq, gradient_check
from sefc.nnkit import SeqNet, TCNNet
from sefc.nnkit.models import _BLOCK_VALUES, LN_EPS

REL = 1e-10


# ---------------------------------------------------------------------------
# reference passes
# ---------------------------------------------------------------------------

def _ref_ln_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _ref_ln_backward(dy, g, saved):
    xhat, inv = saved
    n = xhat.shape[-1]
    dxhat = dy * g
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dx = (inv / n) * (
        n * dxhat
        - dxhat.sum(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
    )
    return dx, dg, db


def _ref_conv_forward(p, prefix, x, kernel, dilations):
    h = x
    saved = []
    for l, d in enumerate(dilations):
        w, b = p[f"{prefix}.W{l}"], p[f"{prefix}.b{l}"]
        pad = (kernel - 1) * d
        hp = np.pad(h, ((0, 0), (pad, 0), (0, 0)))
        T = h.shape[1]
        z = np.full((h.shape[0], T, w.shape[2]), b, dtype=np.float64)
        for k in range(kernel):
            z += hp[:, k * d:k * d + T] @ w[k]
        saved.append((hp, z))
        h = np.maximum(z, 0.0)
    return h, saved


def _ref_conv_backward(p, prefix, dh, saved, kernel, dilations, grads):
    for l in range(len(dilations) - 1, -1, -1):
        d = dilations[l]
        w = p[f"{prefix}.W{l}"]
        hp, z = saved[l]
        dz = dh * (z > 0)
        T = z.shape[1]
        dw = np.empty_like(w)
        dhp = np.zeros_like(hp)
        for k in range(kernel):
            seg = hp[:, k * d:k * d + T]
            dw[k] = np.einsum("bti,bto->io", seg, dz)
            dhp[:, k * d:k * d + T] += dz @ w[k].T
        grads[f"{prefix}.W{l}"] = dw
        grads[f"{prefix}.b{l}"] = dz.sum(axis=(0, 1))
        dh = dhp[:, (kernel - 1) * d:]


def _ref_block_forward(p, pre, x, heads):
    B, T, D = x.shape
    dh = D // heads
    c = {"x": x}
    xn, c["ln1"] = _ref_ln_forward(x, p[f"{pre}.ln1_g"], p[f"{pre}.ln1_b"])
    c["xn"] = xn
    q = xn @ p[f"{pre}.Wq"] + p[f"{pre}.bq"]
    k = xn @ p[f"{pre}.Wk"] + p[f"{pre}.bk"]
    v = xn @ p[f"{pre}.Wv"] + p[f"{pre}.bv"]

    def split(m):
        return m.reshape(B, T, heads, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    scores = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(dh)
    scores = scores + np.triu(np.full((T, T), -np.inf), k=1)
    scores -= scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores)
    attn = exps / exps.sum(axis=-1, keepdims=True)
    ctx_flat = (attn @ vh).transpose(0, 2, 1, 3).reshape(B, T, D)
    c.update(qh=qh, kh=kh, vh=vh, attn=attn, ctx_flat=ctx_flat)
    y = x + ctx_flat @ p[f"{pre}.Wo"] + p[f"{pre}.bo"]
    yn, c["ln2"] = _ref_ln_forward(y, p[f"{pre}.ln2_g"], p[f"{pre}.ln2_b"])
    c["yn"] = yn
    c["z1"] = yn @ p[f"{pre}.F1"] + p[f"{pre}.f1"]
    c["h1"] = np.maximum(c["z1"], 0.0)
    return y + c["h1"] @ p[f"{pre}.F2"] + p[f"{pre}.f2"], c


def _ref_block_backward(p, pre, dout, c, heads, grads):
    B, T, D = c["x"].shape
    dh = D // heads
    grads[f"{pre}.F2"] = np.einsum("btf,btd->fd", c["h1"], dout)
    grads[f"{pre}.f2"] = dout.sum(axis=(0, 1))
    dz1 = (dout @ p[f"{pre}.F2"].T) * (c["z1"] > 0)
    grads[f"{pre}.F1"] = np.einsum("btd,btf->df", c["yn"], dz1)
    grads[f"{pre}.f1"] = dz1.sum(axis=(0, 1))
    dy_ln, grads[f"{pre}.ln2_g"], grads[f"{pre}.ln2_b"] = _ref_ln_backward(
        dz1 @ p[f"{pre}.F1"].T, p[f"{pre}.ln2_g"], c["ln2"])
    dy = dout + dy_ln
    grads[f"{pre}.Wo"] = np.einsum("btd,bte->de", c["ctx_flat"], dy)
    grads[f"{pre}.bo"] = dy.sum(axis=(0, 1))
    dctx = (dy @ p[f"{pre}.Wo"].T).reshape(B, T, heads, dh).transpose(0, 2, 1, 3)
    attn, qh, kh, vh = c["attn"], c["qh"], c["kh"], c["vh"]
    dattn = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores /= math.sqrt(dh)

    def merge(m):
        return m.transpose(0, 2, 1, 3).reshape(B, T, D)

    dxn = np.zeros_like(c["xn"])
    for name, dm in (("q", merge(dscores @ kh)),
                     ("k", merge(dscores.transpose(0, 1, 3, 2) @ qh)),
                     ("v", merge(dvh))):
        grads[f"{pre}.W{name}"] = np.einsum("btd,bte->de", c["xn"], dm)
        grads[f"{pre}.b{name}"] = dm.sum(axis=(0, 1))
        dxn += dm @ p[f"{pre}.W{name}"].T
    dx_ln, grads[f"{pre}.ln1_g"], grads[f"{pre}.ln1_b"] = _ref_ln_backward(
        dxn, p[f"{pre}.ln1_g"], c["ln1"])
    return dy + dx_ln


def _ref_tcn(net, x, y):
    """(predict, loss, flat grad) of a TCNNet, full-sequence with einsum."""
    p = net._params
    h, saved = _ref_conv_forward(p, "tcn", x, net.kernel, net.dilations)
    out = h @ p["head.W"] + p["head.b"]
    resid = out[:, -1] - y
    dout = np.zeros_like(out)
    dout[:, -1] = 2.0 * resid / resid.size
    grads = {"head.W": np.einsum("bth,bto->ho", h, dout), "head.b": dout.sum(axis=(0, 1))}
    _ref_conv_backward(p, "tcn", dout @ p["head.W"].T, saved, net.kernel,
                       net.dilations, grads)
    return out[:, -1], float(np.mean(resid ** 2)), np.concatenate(
        [grads[name].ravel() for name in p])


def _ref_seqnet(net, x, y):
    """(predict, loss, flat grad) of a SeqNet, full-sequence with einsum."""
    p = net._params
    h, saved = _ref_conv_forward(p, "tcn", x, net.kernel, net.tcn_dilations)
    caches = []
    for i in range(net.n_blocks):
        h, c = _ref_block_forward(p, f"enc{i}", h, net.heads)
        caches.append(c)
    hn, ln_f = _ref_ln_forward(h, p["ln_f_g"], p["ln_f_b"])
    out = hn @ p["head.W"] + p["head.b"]
    resid = out[:, -1] - y
    dout = np.zeros_like(out)
    dout[:, -1] = 2.0 * resid / resid.size
    grads = {"head.W": np.einsum("bth,bto->ho", hn, dout), "head.b": dout.sum(axis=(0, 1))}
    dh, grads["ln_f_g"], grads["ln_f_b"] = _ref_ln_backward(
        dout @ p["head.W"].T, p["ln_f_g"], ln_f)
    for i in range(net.n_blocks - 1, -1, -1):
        dh = _ref_block_backward(p, f"enc{i}", dh, caches[i], net.heads, grads)
    _ref_conv_backward(p, "tcn", dh, saved, net.kernel, net.tcn_dilations, grads)
    return out[:, -1], float(np.mean(resid ** 2)), np.concatenate(
        [grads[name].ravel() for name in p])


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= REL * scale


def _check(net, ref, B, T, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(B, T, net.in_features))
    y = rng.normal(size=(B, net.out_dim))
    # perturb biases and norms away from their zero/one init
    net.set_params(net.get_params() + rng.normal(0.0, 0.1, size=net.n_params))
    want_pred, want_loss, want_grad = ref(net, x, y)
    loss, grad = net.loss_and_grad(x, y)
    _assert_close(net.predict(x), want_pred)
    _assert_close(forward_seq(net, x)[:, -1], want_pred)
    _assert_close(loss, want_loss)
    _assert_close(net.loss(x, y), want_loss)
    _assert_close(grad, want_grad)


# (n_blocks, B, T, kernel, heads, tcn_dilations)
SEQNET_CONFIGS = [
    (0, 3, 10, 3, 1, (1, 2)),
    (1, 1, 10, 3, 4, (1, 2, 4)),
    (2, 4, 10, 1, 4, (1,)),
    (2, 2, 1, 3, 1, (1, 2)),
    (1, 5, 1, 1, 4, (2,)),
    (0, 1, 1, 1, 1, (1,)),
    (2, 1, 10, 3, 4, (1, 2, 4)),
]


@pytest.mark.parametrize("n_blocks,B,T,kernel,heads,dilations", SEQNET_CONFIGS)
def test_seqnet_matches_full_sequence_reference(n_blocks, B, T, kernel, heads, dilations):
    net = SeqNet(in_features=5, hidden=8, kernel=kernel, tcn_dilations=dilations,
                 n_blocks=n_blocks, heads=heads, ff_dim=12, out_dim=3,
                 seed=n_blocks + 10 * B + 100 * T)
    _check(net, _ref_seqnet, B, T, seed=kernel + heads)


@pytest.mark.parametrize("B,T,kernel,dilations", [
    (1, 10, 3, (1, 2)),
    (4, 10, 1, (1,)),
    (3, 1, 3, (1, 2, 4)),
    (1, 1, 1, (2,)),
    (6, 10, 3, (4,)),
])
def test_tcn_matches_full_sequence_reference(B, T, kernel, dilations):
    net = TCNNet(in_features=5, hidden=8, kernel=kernel, dilations=dilations,
                 out_dim=3, seed=B + 10 * T)
    _check(net, _ref_tcn, B, T, seed=kernel)


@pytest.mark.parametrize("make,ref", [
    (lambda: SeqNet(in_features=5, hidden=8, kernel=3, tcn_dilations=(1, 2), n_blocks=2,
                    heads=4, ff_dim=12, out_dim=3, seed=21), _ref_seqnet),
    (lambda: TCNNet(in_features=5, hidden=8, kernel=3, dilations=(1, 2, 4), out_dim=3,
                    seed=22), _ref_tcn),
], ids=["seqnet", "tcn"])
def test_row_blocks_match_full_sequence_reference(make, ref):
    """``predict`` over two full row blocks and a ragged third one."""
    net, T = make(), 10
    rows = max(1, _BLOCK_VALUES // net._values_per_row(np.empty((1, T, net.in_features))))
    B = 2 * rows + rows // 2 + 1
    assert B > 2 * rows and B % rows
    _check(net, ref, B, T, seed=5)


@pytest.mark.parametrize("make,ref", [
    (lambda: SeqNet(in_features=5, hidden=8, kernel=3, tcn_dilations=(1, 2), n_blocks=2,
                    heads=4, ff_dim=12, out_dim=3, seed=23), _ref_seqnet),
    (lambda: TCNNet(in_features=5, hidden=8, kernel=3, dilations=(1, 2, 4), out_dim=3,
                    seed=24), _ref_tcn),
], ids=["seqnet", "tcn"])
def test_loss_and_grad_row_blocks_match_full_sequence_reference(make, ref, monkeypatch):
    """``loss_and_grad`` over two full row blocks and a ragged third one,
    each weighted by its share of rows, against the whole-batch reference."""
    net, T = make(), 10
    rows = max(1, _BLOCK_VALUES // net._values_per_row(np.empty((1, T, net.in_features))))
    B = 2 * rows + rows // 2 + 1
    block_rows = []
    block_step = type(net)._block_loss_and_grad

    def counted(self, x, y):
        block_rows.append(len(x))
        return block_step(self, x, y)

    monkeypatch.setattr(type(net), "_block_loss_and_grad", counted)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(B, T, net.in_features))
    y = rng.normal(size=(B, net.out_dim))
    net.set_params(net.get_params() + rng.normal(0.0, 0.1, size=net.n_params))
    _, want_loss, want_grad = ref(net, x, y)
    loss, grad = net.loss_and_grad(x, y)
    assert block_rows == [rows, rows, B - 2 * rows]
    _assert_close(loss, want_loss)
    _assert_close(grad, want_grad)


@pytest.mark.parametrize("n_blocks", [0, 1])
def test_seqnet_gradcheck_shallow(n_blocks):
    rng = np.random.default_rng(7)
    net = SeqNet(in_features=4, hidden=8, kernel=3, tcn_dilations=(1, 2),
                 n_blocks=n_blocks, heads=2, ff_dim=16, out_dim=2, seed=3)
    x = rng.normal(size=(3, 6, 4))
    y = rng.normal(size=(3, 2))
    assert gradient_check(net, x, y, n_probes=150, eps=1e-6, seed=1) < 1e-5
