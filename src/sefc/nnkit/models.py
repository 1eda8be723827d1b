"""Model families with hand-written forward/backward passes.

All computation is float64.  Parameters live in an ordered name->array
registry; the flat vector used by optimizers and checkpoints packs them in
registration order.  Loss is MSE averaged over batch and output entries.

There is one sequence model, ``SeqNet``: a causal conv stack, encoder
blocks, an optional final layer norm and a linear head.  ``TCNNet`` is
``SeqNet`` with no blocks and no final norm.  Its loss reads only the last
step, so ``predict``/``loss_and_grad`` compute only what that step needs:
the last trunk layer (final encoder block, or the conv stack's last layer
when there is no block) and the head run on the last row, while keys and
values still cover every step.

``predict`` keeps no backward cache: every model's ``_forward`` records
activations only when ``loss_and_grad`` hands it a cache dict.  The cache
keeps one array per ReLU, its output, computed in place; backward reads
the ReLU mask from it (``relu(z) > 0`` equals ``z > 0`` bit for bit, NaN
and -0.0 included) and drops each cached array and each layer input after
its last use, so no pre-activation copy is kept.  ``SeqNet.predict`` and
``SeqNet.loss_and_grad`` run a large batch in blocks of rows sized so
that one block's widest activation stays about 1 MiB (``_BLOCK_VALUES``),
so a training step's memory follows the block, not the batch; a batch
that fits is one block.  ``DenseNet`` runs the whole batch at once: row
blocks would reorder its gradient sums, and its step caches one array per
layer instead.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from ..errors import ShapeMismatch

LN_EPS = 1e-8

# Float64 values in the widest activation of one sequence-model row block
# (1 MiB): a block's temporaries then stay inside a 2 MiB L2 cache, where a
# (500, 10, 64) activation is 2.5 MB of fresh memory per layer.  On a
# 2-vCPU Xeon, 68-window blocks ran a 500-window SeqNet or TCNNet predict
# about 10% faster than one whole-batch pass, and a training step's traced
# peak stays at one block's cache (10 MB for the forecast SeqNet, where a
# whole 2000-window batch held 460 MB).
_BLOCK_VALUES = 1 << 17


def _uniform_init(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _mse(pred: np.ndarray, y) -> tuple[float, np.ndarray]:
    """Mean squared error of *pred* against *y*, and its gradient in *pred*."""
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ShapeMismatch(f"prediction {pred.shape} vs target {y.shape}")
    resid = pred - y
    return float(np.mean(resid ** 2)), 2.0 * resid / resid.size


class Model:
    """Base: parameter registry, flat packing, MSE loss plumbing."""

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}

    def _register(self, name: str, value: np.ndarray) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        self._params[name] = arr
        return arr

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self._params.values())

    def get_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self._params.values()])

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise ShapeMismatch(f"expected {self.n_params} params, got {flat.size}")
        offset = 0
        for p in self._params.values():
            p[...] = flat[offset:offset + p.size].reshape(p.shape)
            offset += p.size

    def _grads_to_flat(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate([
            np.asarray(grads[name]).ravel() for name in self._params
        ])

    # subclasses implement: _check_input, predict, loss_and_grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Outputs for a batch, computed without a backward cache."""
        raise NotImplementedError

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        return _mse(self.predict(x), y)[0]

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError


class DenseNet(Model):
    """Fully connected ReLU network; hidden widths may be empty (linear map)."""

    def __init__(self, widths: Sequence[int], seed: int = 0):
        super().__init__()
        if len(widths) < 2:
            raise ShapeMismatch("DenseNet needs at least input and output widths")
        self.widths = tuple(int(w) for w in widths)
        rng = np.random.default_rng(seed)
        for l, (n_in, n_out) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            self._register(f"W{l}", _uniform_init(rng, (n_in, n_out), n_in, n_out))
            self._register(f"b{l}", np.zeros(n_out))

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def spec(self) -> dict:
        return {"kind": "dense", "widths": list(self.widths)}

    @classmethod
    def from_spec(cls, spec: dict) -> "DenseNet":
        return cls(spec["widths"])

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.widths[0]:
            raise ShapeMismatch(
                f"expected input (B, {self.widths[0]}), got {x.shape}"
            )
        return x

    def _forward(self, x: np.ndarray, cache: Optional[dict] = None) -> np.ndarray:
        """Network output; a *cache* dict gets each layer's input ``hs``, one
        array per layer: a hidden pre-activation is overwritten by its ReLU."""
        if cache is not None:
            hs = cache["hs"] = []
        h = x
        for l in range(self.n_layers):
            if l:
                h = np.maximum(z, 0.0, out=z)
            if cache is not None:
                hs.append(h)
            z = h @ self._params[f"W{l}"]
            z += self._params[f"b{l}"]
        return z

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Outputs for the whole batch at once: its GEMMs are already blocked
        by BLAS, so row blocks would only add overhead."""
        return self._forward(self._check_input(x))

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Whole-batch step.  The ReLU mask comes from the cached layer input:
        ``relu(z) > 0`` equals ``z > 0`` bit for bit, NaN and -0.0 included.
        Each input is dropped once its layer's gradients and mask are
        formed, before the next delta is allocated."""
        cache: dict = {}
        loss, delta = _mse(self._forward(self._check_input(x), cache), y)
        hs = cache["hs"]
        grads: dict[str, np.ndarray] = {}
        for l in range(self.n_layers - 1, -1, -1):
            h = hs.pop()
            grads[f"W{l}"] = h.T @ delta
            grads[f"b{l}"] = delta.sum(axis=0)
            if l > 0:
                mask = h > 0
                del h
                delta = delta @ self._params[f"W{l}"].T
                delta *= mask
        return loss, self._grads_to_flat(grads)


# ---------------------------------------------------------------------------
# sequence models
# ---------------------------------------------------------------------------

def _weight_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over every leading axis of the outer products a[..., i] b[..., o].

    One BLAS GEMM: ``(N, i).T @ (N, o)`` with N the product of the leading
    axes (batch and time).
    """
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


@functools.lru_cache(maxsize=16)
def _causal_mask(T: int) -> np.ndarray:
    """(T, T) additive mask that hides later keys; shared, so read-only."""
    mask = np.triu(np.full((T, T), -np.inf), k=1)
    mask.flags.writeable = False
    return mask


class _CausalConvStack:
    """Dilated causal conv1d layers with ReLU, parameters owned by a Model."""

    def __init__(self, model: Model, prefix: str, rng: np.random.Generator,
                 in_features: int, hidden: int, kernel: int, dilations: Sequence[int]):
        self.model = model
        self.prefix = prefix
        self.kernel = kernel
        self.dilations = tuple(dilations)
        c_in = in_features
        for l, _ in enumerate(self.dilations):
            model._register(
                f"{prefix}.W{l}",
                _uniform_init(rng, (kernel, c_in, hidden), kernel * c_in, kernel * hidden),
            )
            model._register(f"{prefix}.b{l}", np.zeros(hidden))
            c_in = hidden

    def forward(self, x: np.ndarray, cache: Optional[dict], n_out: int) -> np.ndarray:
        """Stack output for the last ``n_out`` steps of ``x`` (B, T, C).

        Earlier layers cover every step; the last layer computes only the
        ``n_out`` rows the caller reads.  Each layer is one GEMM: the
        ``kernel`` shifted slices of the padded input lie side by side
        against ``w.reshape(kernel * C, H)``.  Each ReLU runs in place; a
        *cache* dict gets each layer's padded input and ReLU output.
        """
        B, T, _ = x.shape
        h = x
        if cache is not None:
            cache["inputs"], cache["outputs"] = [], []
        for l, d in enumerate(self.dilations):
            w = self.model._params[f"{self.prefix}.W{l}"]
            pad = (self.kernel - 1) * d
            hp = np.zeros((B, pad + T, h.shape[2]))
            hp[:, pad:] = h
            n = n_out if l == len(self.dilations) - 1 else T
            taps = np.concatenate([hp[:, k * d + T - n:k * d + T]
                                   for k in range(self.kernel)], axis=2)
            z = taps @ w.reshape(-1, w.shape[2])
            z += self.model._params[f"{self.prefix}.b{l}"]
            h = np.maximum(z, 0.0, out=z)
            if cache is not None:
                cache["inputs"].append(hp)
                cache["outputs"].append(h)
        return h[:, h.shape[1] - n_out:]

    def backward(self, dh: np.ndarray, cache: dict, grads: dict) -> None:
        """Parameter gradients from ``dh``, the gradient of the output rows
        ``forward`` returned.  The input gradient is not needed and not formed.
        The ReLU mask comes from the cached output (``relu(z) > 0`` equals
        ``z > 0`` bit for bit), and each layer's cache is dropped once read."""
        inputs, outputs = cache.pop("inputs"), cache.pop("outputs")
        for l in range(len(self.dilations) - 1, -1, -1):
            d = self.dilations[l]
            w = self.model._params[f"{self.prefix}.W{l}"]
            hp = inputs.pop()
            dz = dh * (outputs.pop() > 0)
            pad = (self.kernel - 1) * d
            T, n = hp.shape[1] - pad, dz.shape[1]
            dw = np.empty_like(w)
            for k in range(self.kernel):
                dw[k] = _weight_grad(hp[:, k * d + T - n:k * d + T], dz)
            grads[f"{self.prefix}.W{l}"] = dw
            grads[f"{self.prefix}.b{l}"] = dz.sum(axis=(0, 1))
            if l:
                dhp = np.zeros_like(hp)
                for k in range(self.kernel):
                    dhp[:, k * d + T - n:k * d + T] += dz @ w[k].T
                dh = dhp[:, pad:]


def _layer_norm_forward(x, g, b, cache_key, cache):
    """Layer norm over the last axis; a *cache* dict gets ``(xhat, inv)``
    under *cache_key*.  The reductions are ``mean``'s own sum-then-divide."""
    n = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    if cache is None:
        xhat *= g
        xhat += b
        return xhat
    cache[cache_key] = (xhat, inv)
    out = xhat * g
    out += b
    return out


def _layer_norm_backward(dy, g, cache_key, cache):
    """Gradients of the input, ``g`` and ``b``; drops *cache_key* from *cache*."""
    xhat, inv = cache.pop(cache_key)
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


class _EncoderBlock:
    """Pre-norm residual block: causal multi-head attention + feedforward."""

    def __init__(self, model: Model, prefix: str, rng: np.random.Generator,
                 dim: int, heads: int, ff_dim: int):
        if dim % heads:
            raise ShapeMismatch(f"model dim {dim} not divisible by {heads} heads")
        self.model = model
        self.prefix = prefix
        self.dim = dim
        self.heads = heads
        self.dh = dim // heads
        for name in ("Wq", "Wk", "Wv", "Wo"):
            model._register(f"{prefix}.{name}", _uniform_init(rng, (dim, dim), dim, dim))
            model._register(f"{prefix}.{name.replace('W', 'b')}", np.zeros(dim))
        model._register(f"{prefix}.ln1_g", np.ones(dim))
        model._register(f"{prefix}.ln1_b", np.zeros(dim))
        model._register(f"{prefix}.F1", _uniform_init(rng, (dim, ff_dim), dim, ff_dim))
        model._register(f"{prefix}.f1", np.zeros(ff_dim))
        model._register(f"{prefix}.F2", _uniform_init(rng, (ff_dim, dim), ff_dim, dim))
        model._register(f"{prefix}.f2", np.zeros(dim))
        model._register(f"{prefix}.ln2_g", np.ones(dim))
        model._register(f"{prefix}.ln2_b", np.zeros(dim))

    def _p(self, name):
        return self.model._params[f"{self.prefix}.{name}"]

    def _split(self, m: np.ndarray) -> np.ndarray:  # (B,t,D) -> (B,H,t,dh)
        return m.reshape(m.shape[0], m.shape[1], self.heads, self.dh).transpose(0, 2, 1, 3)

    def _merge(self, m: np.ndarray) -> np.ndarray:  # (B,H,t,dh) -> (B,t,D)
        return m.transpose(0, 2, 1, 3).reshape(m.shape[0], m.shape[2], self.dim)

    def forward(self, x: np.ndarray, cache: Optional[dict], n: int) -> np.ndarray:
        """Block output for the last ``n`` steps of ``x`` (B, T, D).

        Keys and values cover every step; queries, the residual, LN2 and the
        feedforward cover only the last ``n``.  The last row sees every key,
        so ``n == 1`` needs no causal mask.  The feedforward ReLU runs in
        place.  A *cache* dict gets what ``backward`` reads.
        """
        T = x.shape[1]
        xn = _layer_norm_forward(x, self._p("ln1_g"), self._p("ln1_b"), "ln1", cache)
        q = xn[:, T - n:] @ self._p("Wq")
        q += self._p("bq")
        k = xn @ self._p("Wk")
        k += self._p("bk")
        v = xn @ self._p("Wv")
        v += self._p("bv")

        qh, kh, vh = self._split(q), self._split(k), self._split(v)
        attn = qh @ kh.transpose(0, 1, 3, 2)
        attn /= math.sqrt(self.dh)
        if n > 1:
            attn += _causal_mask(T)[T - n:]
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx_flat = self._merge(attn @ vh)                    # (B,n,D)
        y = ctx_flat @ self._p("Wo")
        y += self._p("bo")
        y += x[:, T - n:]

        yn = _layer_norm_forward(y, self._p("ln2_g"), self._p("ln2_b"), "ln2", cache)
        z1 = yn @ self._p("F1")
        z1 += self._p("f1")
        h1 = np.maximum(z1, 0.0, out=z1)
        out = h1 @ self._p("F2")
        out += self._p("f2")
        out += y
        if cache is not None:
            cache.update(T=T, xn=xn, qh=qh, kh=kh, vh=vh, attn=attn,
                         ctx_flat=ctx_flat, yn=yn, h1=h1)
        return out

    def backward(self, dout: np.ndarray, cache: dict, grads: dict) -> np.ndarray:
        """Gradient of the whole input (B, T, D) from ``dout`` (B, n, D).

        The ReLU mask comes from the cached output, as in ``DenseNet``.
        Each cached array and each gradient is dropped after its last use.
        """
        T = cache.pop("T")
        last = slice(T - dout.shape[1], T)
        pre = self.prefix

        # feedforward branch
        h1 = cache.pop("h1")
        grads[f"{pre}.F2"] = _weight_grad(h1, dout)
        grads[f"{pre}.f2"] = dout.sum(axis=(0, 1))
        dz1 = dout @ self._p("F2").T
        dz1 *= h1 > 0
        del h1
        grads[f"{pre}.F1"] = _weight_grad(cache.pop("yn"), dz1)
        grads[f"{pre}.f1"] = dz1.sum(axis=(0, 1))
        dyn = dz1 @ self._p("F1").T
        del dz1
        dy, grads[f"{pre}.ln2_g"], grads[f"{pre}.ln2_b"] = _layer_norm_backward(
            dyn, self._p("ln2_g"), "ln2", cache)
        del dyn
        dy += dout

        # attention branch
        grads[f"{pre}.Wo"] = _weight_grad(cache.pop("ctx_flat"), dy)
        grads[f"{pre}.bo"] = dy.sum(axis=(0, 1))
        dctx = self._split(dy @ self._p("Wo").T)

        attn, vh = cache.pop("attn"), cache.pop("vh")
        dattn = dctx @ vh.transpose(0, 1, 3, 2)
        del vh
        dvh = attn.transpose(0, 1, 3, 2) @ dctx
        del dctx
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        del attn, dattn
        dscores /= math.sqrt(self.dh)
        dqh = dscores @ cache.pop("kh")
        dkh = dscores.transpose(0, 1, 3, 2) @ cache.pop("qh")
        del dscores

        xn = cache.pop("xn")
        dxn = np.zeros_like(xn)
        for name, rows, d in (("q", last, dqh), ("k", slice(None), dkh),
                              ("v", slice(None), dvh)):
            dm = self._merge(d)
            grads[f"{pre}.W{name}"] = _weight_grad(xn[:, rows], dm)
            grads[f"{pre}.b{name}"] = dm.sum(axis=(0, 1))
            dxn[:, rows] += dm @ self._p(f"W{name}").T
        del xn, dqh, dkh, dvh, dm
        dx, grads[f"{pre}.ln1_g"], grads[f"{pre}.ln1_b"] = _layer_norm_backward(
            dxn, self._p("ln1_g"), "ln1", cache)
        dx[:, last] += dy
        return dx


class SeqNet(Model):
    """Dilated causal TCN front-end plus a causal pre-norm encoder stack.

    Positional information comes from the TCN front-end; no positional
    encoding is added.  Output at step t depends only on inputs <= t.
    A final layer norm sits before the head when ``final_norm`` is set.
    """

    final_norm = True

    def __init__(self, in_features: int = 36, hidden: int = 64, kernel: int = 3,
                 tcn_dilations: Sequence[int] = (1, 2, 4), n_blocks: int = 2,
                 heads: int = 4, ff_dim: int = 128, out_dim: int = 6, seed: int = 0):
        super().__init__()
        self.in_features = in_features
        self.hidden = hidden
        self.kernel = kernel
        self.tcn_dilations = tuple(tcn_dilations)
        self.n_blocks = n_blocks
        self.heads = heads
        self.ff_dim = ff_dim
        self.out_dim = out_dim
        rng = np.random.default_rng(seed)
        self.stack = _CausalConvStack(self, "tcn", rng, in_features, hidden,
                                      kernel, self.tcn_dilations)
        self.blocks = [
            _EncoderBlock(self, f"enc{i}", rng, hidden, heads, ff_dim)
            for i in range(n_blocks)
        ]
        if self.final_norm:
            self._register("ln_f_g", np.ones(hidden))
            self._register("ln_f_b", np.zeros(hidden))
        self._register("head.W", _uniform_init(rng, (hidden, out_dim), hidden, out_dim))
        self._register("head.b", np.zeros(out_dim))

    def spec(self) -> dict:
        return {
            "kind": "seqnet",
            "in_features": self.in_features,
            "hidden": self.hidden,
            "kernel": self.kernel,
            "tcn_dilations": list(self.tcn_dilations),
            "n_blocks": self.n_blocks,
            "heads": self.heads,
            "ff_dim": self.ff_dim,
            "out_dim": self.out_dim,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "SeqNet":
        return cls(spec["in_features"], spec["hidden"], spec["kernel"],
                   spec["tcn_dilations"], spec["n_blocks"], spec["heads"],
                   spec["ff_dim"], spec["out_dim"])

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ShapeMismatch(
                f"expected input (B, T, {self.in_features}), got {x.shape}"
            )
        return x

    def _values_per_row(self, x: np.ndarray) -> int:
        """Widest activation of one window: the conv taps, or with encoder
        blocks the feedforward or the attention scores, over every step."""
        T = x.shape[1]
        widest = self.kernel * max(self.in_features, self.hidden)
        if self.blocks:
            widest = max(widest, self.ff_dim, self.heads * T)
        return T * widest

    def _forward(self, x: np.ndarray, cache: Optional[dict], n_out: int) -> np.ndarray:
        """Outputs (B, n_out, out_dim) for the last ``n_out`` steps.

        Only the last layer of the trunk (the last encoder block, or the
        conv stack when there is none) narrows to ``n_out`` rows.  With
        ``cache=None`` nothing is recorded; a dict gets what the backward
        passes read.
        """
        T = x.shape[1]
        h = self.stack.forward(x, cache, T if self.blocks else n_out)
        if cache is not None:
            cache["blocks"] = []
        for i, block in enumerate(self.blocks, 1):
            bc = None if cache is None else {}
            h = block.forward(h, bc, n_out if i == len(self.blocks) else T)
            if cache is not None:
                cache["blocks"].append(bc)
        if self.final_norm:
            h = _layer_norm_forward(h, self._params["ln_f_g"], self._params["ln_f_b"],
                                    "ln_f", cache)
        if cache is not None:
            cache["h_final"] = h
        out = h @ self._params["head.W"]
        out += self._params["head.b"]
        return out

    def _block_rows(self, x: np.ndarray) -> int:
        """Rows of one block: its widest activation stays within ``_BLOCK_VALUES``."""
        return max(1, _BLOCK_VALUES // self._values_per_row(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Last-step outputs for a batch in row blocks; an empty batch is one block."""
        x = self._check_input(x)
        rows = self._block_rows(x)
        return np.concatenate([self._forward(x[i:i + rows], None, 1)[:, 0]
                               for i in range(0, max(len(x), 1), rows)])

    def loss_and_grad(self, x, y):
        """Loss and flat gradient in ``predict``'s row blocks: each block's
        loss and gradient are weighted by its share of rows and summed, and
        a block's cache is freed before the next block starts."""
        x = self._check_input(x)
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (len(x), self.out_dim):
            raise ShapeMismatch(f"prediction {(len(x), self.out_dim)} vs target {y.shape}")
        rows = self._block_rows(x)
        loss, grad = 0.0, np.zeros(self.n_params)
        for i in range(0, len(x), rows):
            share = len(x[i:i + rows]) / len(x)
            block_loss, block_grad = self._block_loss_and_grad(x[i:i + rows], y[i:i + rows])
            loss += share * block_loss
            block_grad *= share
            grad += block_grad
        return loss, grad

    def _block_loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """One block's step.  Not a public entry, so a tracer that wraps
        ``loss_and_grad`` counts one span per training step.  Each layer's
        cache is dropped once its backward has read it."""
        cache: dict = {}
        loss, dpred = _mse(self._forward(x, cache, 1)[:, 0], y)
        dout = dpred[:, None]
        grads: dict[str, np.ndarray] = {}
        grads["head.W"] = _weight_grad(cache.pop("h_final"), dout)
        grads["head.b"] = dout.sum(axis=(0, 1))
        dh = dout @ self._params["head.W"].T
        if self.final_norm:
            dh, grads["ln_f_g"], grads["ln_f_b"] = _layer_norm_backward(
                dh, self._params["ln_f_g"], "ln_f", cache)
        block_caches = cache.pop("blocks")
        for block in reversed(self.blocks):
            dh = block.backward(dh, block_caches.pop(), grads)
        self.stack.backward(dh, cache, grads)
        return loss, self._grads_to_flat(grads)


class TCNNet(SeqNet):
    """Causal TCN with a per-step linear head (the sequence baseline): a
    ``SeqNet`` with no encoder blocks and no final layer norm."""

    final_norm = False

    def __init__(self, in_features: int, hidden: int = 64, kernel: int = 3,
                 dilations: Sequence[int] = (1, 2), out_dim: int = 6, seed: int = 0):
        super().__init__(in_features, hidden, kernel, dilations, n_blocks=0,
                         out_dim=out_dim, seed=seed)

    def spec(self) -> dict:
        return {
            "kind": "tcn",
            "in_features": self.in_features,
            "hidden": self.hidden,
            "kernel": self.kernel,
            "dilations": list(self.tcn_dilations),
            "out_dim": self.out_dim,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "TCNNet":
        return cls(spec["in_features"], spec["hidden"], spec["kernel"],
                   spec["dilations"], spec["out_dim"])

    # Own entries in the class __dict__, so bench/tracer.py times TCNNet apart from SeqNet.
    predict = SeqNet.predict
    loss_and_grad = SeqNet.loss_and_grad
