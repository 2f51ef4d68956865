"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately brute force (tensor quadrature, double loops,
literal formula evaluation) and never calls the package's optimized paths.
"""

from __future__ import annotations

import math

import numpy as np


def _logsumexp_w(logf: np.ndarray, logw: np.ndarray) -> float:
    """log(sum(w * exp(logf))) with positive weights w given as logw."""
    a = logf + logw
    hi = np.max(a)
    if not np.isfinite(hi):
        return float(hi)
    return float(hi + np.log(np.sum(np.exp(a - hi))))


def gprior_log_marginal_quadrature(
    y: np.ndarray,
    x_sub: np.ndarray | None,
    g: float,
    n_beta: int = 64,
    n_logsig: int = 240,
) -> float:
    """Log marginal likelihood of one Gaussian linear model by quadrature.

    Model: y = alpha*1 + Xc beta + eps, eps ~ N(0, sigma^2 I), with Xc the
    column-centered design.  Priors: flat on alpha and on log sigma, and
    beta | sigma ~ N(0, g sigma^2 (Xc'Xc)^-1).  The intercept is integrated
    analytically; beta (k dims) and u = log sigma are integrated on tensor
    Gauss-Legendre grids.  Per u node the beta box is centred on the
    conditional posterior mean and mapped through the Cholesky factor of the
    conditional covariance, so it spans +-10 sd along every principal
    direction and resolves the conditional Gaussian however correlated the
    columns are.

    `x_sub is None` (or zero columns) gives the intercept-only model.
    Requires a strictly positive residual sum of squares.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    yc = y - y.mean()
    syy = float(yc @ yc)
    if syy <= 0:
        raise ValueError("quadrature oracle needs non-constant y")

    k = 0 if x_sub is None else np.asarray(x_sub).shape[1]

    # u grid shared by all k: cover the residual-scale peak and the slow
    # sigma^-(n-1) right tail.
    if k == 0:
        rss = syy
    else:
        xc = np.asarray(x_sub, dtype=float) - np.asarray(x_sub, dtype=float).mean(axis=0)
        a_mat = xc.T @ xc
        bvec = xc.T @ yc
        beta_hat = np.linalg.solve(a_mat, bvec)
        rss = float(syy - bvec @ beta_hat)
        if rss <= 0:
            raise ValueError("quadrature oracle needs a strictly positive RSS")
    u_lo = 0.5 * np.log(rss / n) - 5.0
    u_hi = 0.5 * np.log(syy / n) + 9.0
    xu, wu = np.polynomial.legendre.leggauss(n_logsig)
    u = 0.5 * (u_hi - u_lo) * xu + 0.5 * (u_hi + u_lo)
    logwu = np.log(0.5 * (u_hi - u_lo) * wu)
    sig2 = np.exp(2.0 * u)

    if k == 0:
        logf = -0.5 * (n - 1) * np.log(2 * np.pi * sig2) - 0.5 * np.log(n) - syy / (2 * sig2)
        return _logsumexp_w(logf, logwu)

    sign, logdet_a = np.linalg.slogdet(a_mat)
    if sign <= 0:
        raise ValueError("Xc'Xc not positive definite")

    # Conditional posterior of beta given sigma is Gaussian with mean
    # (g/(1+g)) beta_hat and covariance sigma^2 (g/(1+g)) A^-1.  The grid is
    # mapped through the Cholesky factor L of (g/(1+g)) A^-1, so per u node
    # the box spans +-10 conditional sd along every principal direction (an
    # axis-aligned box of marginal sds misses the ridge of a correlated
    # design).
    shrink = g / (1.0 + g)
    center = shrink * beta_hat
    chol = np.linalg.cholesky(shrink * np.linalg.inv(a_mat))  # times sigma
    log_det_chol = float(np.sum(np.log(np.diag(chol))))

    xb, wb = np.polynomial.legendre.leggauss(n_beta)
    grids = np.meshgrid(*([xb] * k), indexing="ij")
    ksi = np.stack([gr.ravel() for gr in grids], axis=1)  # (nb^k, k) in [-1,1]
    logwb_flat = np.zeros(ksi.shape[0])
    for d in range(k):
        logwb_flat += np.log(wb)[
            np.unravel_index(np.arange(ksi.shape[0]), (n_beta,) * k)[d]
        ]
    offsets = ksi @ chol.T  # unit-sigma offsets along the principal directions

    per_u = np.empty(n_logsig)
    for j in range(n_logsig):
        scale = 10.0 * np.exp(u[j])
        beta = center[None, :] + scale * offsets
        diff = beta - beta_hat[None, :]
        q_fit = np.einsum("ij,jk,ik->i", diff, a_mat, diff)
        q_prior = np.einsum("ij,jk,ik->i", beta, a_mat, beta)
        logf = (
            -0.5 * (n - 1) * np.log(2 * np.pi * sig2[j])
            - 0.5 * np.log(n)
            - (rss + q_fit) / (2 * sig2[j])
            - 0.5 * k * np.log(2 * np.pi * g * sig2[j])
            + 0.5 * logdet_a
            - q_prior / (2 * g * sig2[j])
        )
        per_u[j] = _logsumexp_w(logf, logwb_flat + k * np.log(scale) + log_det_chol)
    return _logsumexp_w(per_u, logwu)


def gprior_log_bf_quadrature(y: np.ndarray, x_model: np.ndarray | None, g: float) -> float:
    """Log Bayes factor of a model against the intercept-only model."""
    num = gprior_log_marginal_quadrature(y, x_model, g)
    den = gprior_log_marginal_quadrature(y, None, g)
    return num - den


def naive_mean_log_bf_loss(log_bf: np.ndarray) -> np.ndarray:
    """Per-model loss as the explicit double loop over ordered pairs."""
    log_bf = np.asarray(log_bf, dtype=float)
    m = log_bf.size
    out = np.empty(m)
    for i in range(m):
        acc = 0.0
        for j in range(m):
            if j != i:
                acc += log_bf[j] - log_bf[i]
        out[i] = acc / (m - 1)
    return out


def literal_log_e(losses: np.ndarray, lam: float) -> np.ndarray:
    """Literal evaluation of the running-supremum log E-values.

    `losses` is a (T, m) array of per-model losses.  Returns the (T, m)
    array whose (t, i) entry is

        max_{r <= t+1} [ logsumexp_{j != i}( lam * sum_{s<=r} (L_is - L_js) )
                         - log(m-1) - r/8 ]

    computed the slow O(m^2 T^2) way.
    """
    losses = np.asarray(losses, dtype=float)
    t_max, m = losses.shape
    cum = np.cumsum(losses, axis=0)
    out = np.empty((t_max, m))
    sup = np.full(m, -np.inf)
    for r in range(1, t_max + 1):
        a = cum[r - 1]
        term = np.empty(m)
        for i in range(m):
            z = lam * (a[i] - np.delete(a, i))
            hi = z.max()
            term[i] = hi + np.log(np.exp(z - hi).sum()) - np.log(m - 1) - r / 8.0
        sup = np.maximum(sup, term)
        out[r - 1] = sup
    return out


def literal_log_e_pairwise(d_steps: np.ndarray, lam: float) -> np.ndarray:
    """Same as literal_log_e but from per-step pairwise differences.

    `d_steps` is (T, m, m) with d[t, i, j] = L_it - L_jt.
    """
    d_steps = np.asarray(d_steps, dtype=float)
    t_max, m, _ = d_steps.shape
    cum = np.cumsum(d_steps, axis=0)
    out = np.empty((t_max, m))
    sup = np.full(m, -np.inf)
    for r in range(1, t_max + 1):
        c = cum[r - 1]
        term = np.empty(m)
        for i in range(m):
            z = lam * np.delete(c[i], i)
            hi = z.max()
            term[i] = hi + np.log(np.exp(z - hi).sum()) - np.log(m - 1) - r / 8.0
        sup = np.maximum(sup, term)
        out[r - 1] = sup
    return out


def chained_imputation_per_chain(
    x: np.ndarray,
    mask: np.ndarray,
    n_chains: int,
    sweeps: int,
    rng: np.random.Generator,
    ridge: float,
    sigma_prior_weight: float,
    coef_draw: bool = True,
) -> np.ndarray:
    """Chained-equation completions computed one chain and one fit at a time.

    Chain j draws from child j of `rng.spawn(n_chains)`: first the initial
    fill of every column with missing cells (observed mean plus observed-sd
    noise), then, per (sweep, column), the coefficient draw (q normals) and
    the noise of the missing cells.  Each conditional fit regresses the
    column on [1, other covariates] over its observed rows: the other
    columns are centred and scaled to unit sd row by row, their slopes get
    ridge * q pseudo-rows of prior, and the Cholesky factor L of
    X_std'X_std + ridge q I gives the point fit and the slope draw
    sigma * L^-T xi[1:]; both map back to raw slopes through the sds, and
    the intercept is the mean of z (plus sigma xi[0] / sqrt(n_obs)) less the
    column means times the slopes.  Returns the (n_chains, n, p)
    completions.
    """
    n, p = x.shape
    out = np.empty((n_chains, n, p))
    for j, chain_rng in enumerate(rng.spawn(n_chains)):
        filled = x.copy()
        for k in range(p):
            miss = ~mask[:, k]
            if not miss.any():
                continue
            obs_vals = x[mask[:, k], k]
            filled[miss, k] = float(obs_vals.mean()) + float(obs_vals.std()) * chain_rng.standard_normal(
                int(miss.sum())
            )
        cols_with_missing = [k for k in range(p) if not mask[:, k].all()]
        for _ in range(sweeps):
            for k in cols_with_missing:
                others = [c for c in range(p) if c != k]
                obs = mask[:, k]
                x_obs = filled[obs][:, others]
                z_obs = filled[obs, k]
                n_obs, q = len(z_obs), len(others) + 1
                mean = x_obs.mean(axis=0)
                sd = x_obs.std(axis=0)
                x_std = (x_obs - mean) / sd
                factor = np.linalg.cholesky(x_std.T @ x_std + ridge * q * np.eye(q - 1))
                b_std = np.linalg.solve(factor.T, np.linalg.solve(factor, x_std.T @ z_obs))
                slopes = b_std / sd
                beta = np.concatenate([[z_obs.mean() - mean @ slopes], slopes])
                design = np.column_stack([np.ones(n), filled[:, others]])
                resid = z_obs - design[obs] @ beta
                dof = max(n_obs - q, 1)
                s0_sq = float(np.var(z_obs)) + 1e-12
                sigma_sq = (float(resid @ resid) + sigma_prior_weight * s0_sq) / (dof + sigma_prior_weight)
                sigma = float(np.sqrt(sigma_sq))
                if coef_draw:
                    xi = chain_rng.standard_normal(q)
                    step = np.linalg.solve(factor.T, xi[1:]) / sd
                    beta = beta + sigma * np.concatenate([[xi[0] / np.sqrt(n_obs) - mean @ step], step])
                miss = ~obs
                pred = design[miss] @ beta
                filled[miss, k] = pred + sigma * chain_rng.standard_normal(int(miss.sum()))
        out[j] = filled
    return out


def crossing_events_reference(traj: np.ndarray) -> np.ndarray:
    """Crossing indicators of one (T,) series by a scalar walk along it.

    side(t) is active iff prob >= 0.5; entry t is 1 when the side changed
    relative to the previous non-NaN entry.  NaN entries never host an
    event and are bridged over.
    """
    traj = np.asarray(traj, dtype=float)
    events = np.zeros(traj.size, dtype=np.int64)
    prev_side = None
    for i, v in enumerate(traj):
        if np.isnan(v):
            continue
        side = v >= 0.5
        if prev_side is not None and side != prev_side:
            events[i] = 1
        prev_side = side
    return events


def model_bits(p: int) -> np.ndarray:
    """(2**p, p) uint8 matrix whose row i is the inclusion vector of model i."""
    idx = np.arange(1 << p)
    bits = np.empty((idx.size, p), dtype=np.uint8)
    for k in range(p):  # a column at a time: an (m, p) int64 temporary is 168 MB at p = 20
        bits[:, k] = (idx >> k) & 1
    return bits


def sequential_reference(tables, pooling, loss_mode, prior, lam, alpha):
    """Inclusion trajectories of the post-sweep steps, evaluated literally.

    `tables` holds one (M, m) per-imputation log-BF table per time step.
    Each step pools by formula (arithmetic: log of the mean BF; geometric
    and mixture: the mean log BF) and forms the posterior under the model
    prior (mixture: the mean of the per-row posteriors, renormalised).  The
    E-processes run on the mean pairwise loss of the pooled vector
    (increment: of its change since the previous step) through
    literal_log_e_pairwise.  Inclusion is the bits product; the mixed weight
    is |S|/m.  Returns ({method: (T, p)}, (T,) set sizes, fallback count).
    """
    t_count, (_, m) = len(tables), tables[0].shape
    p = m.bit_length() - 1
    bits = model_bits(p).astype(float)
    sizes = bits.sum(axis=1).astype(int)
    if prior == "uniform":
        log_prior = np.full(m, -np.log(m))
    else:
        log_prior = np.array([-np.log(p + 1) - np.log(math.comb(p, int(k))) for k in sizes])

    def softmax(logits):
        w = np.exp(logits - logits.max())
        return w / w.sum()

    pooled, posts = [], []
    for tab in tables:
        if pooling == "arithmetic":
            pooled.append(np.log(np.exp(tab).mean(axis=0)))
        else:
            pooled.append(tab.mean(axis=0))
        if pooling == "mixture":
            mix = np.mean([softmax(row + log_prior) for row in tab], axis=0)
            posts.append(mix / mix.sum())
        else:
            posts.append(softmax(pooled[-1] + log_prior))

    d_steps = np.empty((t_count, m, m))
    for t in range(t_count):
        vec = pooled[t] - pooled[t - 1] if loss_mode == "increment" and t > 0 else pooled[t]
        loss = np.array([sum(vec[j] - vec[i] for j in range(m) if j != i) / (m - 1) for i in range(m)])
        d_steps[t] = loss[:, None] - loss[None, :]
    member = literal_log_e_pairwise(d_steps, lam) <= np.log(1.0 / alpha)

    probs = {meth: np.empty((t_count, p)) for meth in ("bvs", "smcs", "zero_out", "mixed")}
    fallbacks = 0
    for t in range(t_count):
        post, inside = posts[t], member[t]
        probs["bvs"][t] = bits.T @ post
        probs["smcs"][t] = bits[inside].mean(axis=0) if inside.any() else np.nan
        if inside.any() and post[inside].sum() > 0:
            probs["zero_out"][t] = bits.T @ np.where(inside, post, 0.0) / post[inside].sum()
        else:
            probs["zero_out"][t] = probs["bvs"][t]
            fallbacks += 1
        w = inside.sum() / m
        probs["mixed"][t] = w * probs["smcs"][t] + (1 - w) * probs["bvs"][t] if inside.any() else probs["bvs"][t]
    return probs, member.sum(axis=1), fallbacks


def per_point_text(px, py, xs, ys) -> str | None:
    """A series' SVG points text, formatted point by point.

    '%.2f,%.2f' of (px(x), py(y)) for each point with finite y, joined by
    spaces; None when fewer than 2 points are finite (nothing is drawn).
    """
    pts = ["%.2f,%.2f" % (px(float(x)), py(float(y))) for x, y in zip(xs, ys) if math.isfinite(float(y))]
    return " ".join(pts) if len(pts) >= 2 else None


def _per_point_frame(title, xs, y_hi, x_label, y_label):
    """The opening parts of a chart over xs and [0, y_hi], and its scalar x and y maps."""
    from seqbvs import svg

    lo, hi = float(xs[0]), float(xs[-1])
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    parts = [svg._HEAD, svg._title(title), svg._axes(lo, hi, 0.0, y_hi, x_label, y_label)]
    return parts, (lambda x: svg._map_x(x, lo, hi)), (lambda y: svg._map_y(y, 0.0, y_hi))


def per_point_trajectory_chart(ns, probs, active, emphasize, title) -> str:
    """svg.trajectory_chart with every polyline drawn through per_point_text."""
    from seqbvs import svg

    parts, px, py = _per_point_frame(title, ns, 1.0, "n", "inclusion probability")
    rule = py(0.5)
    parts.append(
        f'<line x1="{svg.MARGIN_L}" y1="{rule:.1f}" x2="{svg.WIDTH - svg.MARGIN_R}" y2="{rule:.1f}" '
        'stroke="#555" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    for k in np.argsort(np.asarray(active).astype(int)):
        pts = per_point_text(px, py, ns, probs[:, k])
        if pts is not None:
            color = svg.ACTIVE_COLOR if active[k] else svg.INACTIVE_COLOR
            width = 2.6 if (k + 1) in emphasize else 1.2
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="{width:g}" '
                f'stroke-opacity="1" points="{pts}"/>'
            )
    parts.append(svg._label("active", svg.WIDTH - 150, svg.MARGIN_T + 16, svg.ACTIVE_COLOR))
    parts.append(svg._label("inactive", svg.WIDTH - 150, svg.MARGIN_T + 32, svg.INACTIVE_COLOR))
    return "\n".join(parts + ["</svg>"]) + "\n"


def per_point_crossing_totals_chart(ts, series, title) -> str:
    """svg.crossing_totals_chart with every band and line drawn through per_point_text."""
    from seqbvs import svg

    y_hi = max([1.0] + [float(np.max(mean + sd)) * 1.05 for mean, sd in series.values()])
    parts, px, py = _per_point_frame(title, ts, y_hi, "t", "total crossings")
    y_text = svg.MARGIN_T + 16
    for meth, (mean, sd) in series.items():
        color = svg.SERIES_COLORS.get(meth, "#333333")
        lo = [max(m - s, 0.0) for m, s in zip(mean.tolist(), sd.tolist())]
        hi = [m + s for m, s in zip(mean.tolist(), sd.tolist())]
        outline = per_point_text(px, py, list(ts) + list(ts)[::-1], hi + lo[::-1])
        if outline is not None:
            parts.append(f'<polygon fill="{color}" fill-opacity="0.18" stroke="none" points="{outline}"/>')
        pts = per_point_text(px, py, ts, mean)
        if pts is not None:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="2" stroke-opacity="1" points="{pts}"/>'
            )
        parts.append(svg._label(meth, svg.WIDTH - 150, y_text, color))
        y_text += 16
    return "\n".join(parts + ["</svg>"]) + "\n"
