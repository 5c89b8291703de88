"""Output checks against references independent of the route under test.

* Lorentzian families (GLDD, TGLDD, Meier-Tannor): alpha(t) for t > 0 from
  the exact pole expansion in mpmath, i.e. -i times the sum of the
  lower-half-plane residues of J(w) (coth(beta w/2) + 1) exp(-i w t), with
  exact Matsubara (or fermionic) poles rather than a rational approximant.
* Power laws: mpmath quadrature of the defining transform.
* Reorganization energies: the exact sum of weights (GLDD) or mpmath
  quadrature (TGLDD).
* ``eta``: ``bathkit.influence.eta_oracle`` (two-dimensional quadrature)
  over a numpy evaluation of the input series.
* ``jw``: a numpy evaluation of the inverse formula on every row.
* ``pade``: the rebuilt approximant against the exact occupation function.

``check_job`` returns the relative errors of the checked values, or raises
``CheckFailed``.  Fits have no reference value; they are checked for decay
and for reproducing their samples within the RMS they report, and add no
relative error.
"""

from __future__ import annotations

import math
import random
import re

import mpmath as mp
import numpy as np

mp.mp.dps = 17

# A checked value passes when its relative error is at most this.
TOLERANCE = {"alpha_series": 1e-5, "alpha_quadrature": 1e-7,
             "alpha_closed": 1e-9, "lambda": 1e-9, "eta": 1e-7, "jw": 1e-9,
             "pade": 1e-9}


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _lorentz(terms, w):
    return sum(lam * gam * (1 / (gam**2 + (w - w0) ** 2)
                            + 1 / (gam**2 + (w + w0) ** 2))
               for lam, gam, w0 in terms)


def _meier_tannor(terms, w):
    return mp.pi * w / 2 * sum(
        lam / ((gam**2 + (w + w0) ** 2) * (gam**2 + (w - w0) ** 2))
        for lam, gam, w0 in terms)


def alpha_poles(family, terms, beta, t):
    """alpha(t), t > 0, of a Lorentzian-family density by residues."""
    beta, t = mp.mpf(beta), mp.mpf(t)
    terms = [tuple(map(mp.mpf, term)) for term in terms]

    def bose2(z):  # coth(beta z / 2) + 1
        return 2 / (1 - mp.exp(-beta * z))

    total = mp.mpc(0)
    for lam, gam, w0 in terms:
        # each half of a Lorentzian pair has one simple pole below the axis,
        # where 1/(gam^2 + (w -+ w0)^2) has residue i/(2 gam)
        for z, other in ((mp.mpc(w0, -gam), +w0), (mp.mpc(-w0, -gam), -w0)):
            osc = mp.exp(-1j * z * t)
            if family == "gldd":
                total += z / mp.pi * bose2(z) * osc * 0.5j * lam
            elif family == "tgldd":
                # tanh(x) (coth(x) + 1) = 1 + tanh(x)
                total += (1 + mp.tanh(beta * z / 2)) / mp.pi * osc * 0.5j * lam
            else:
                total += (mp.pi * z / 2 * lam / (gam**2 + (z + other) ** 2)
                          * bose2(z) * osc * 0.5j / gam)
    n = 0
    while True:
        n += 1
        if family == "tgldd":
            nu = mp.pi * (2 * n - 1) / beta  # poles of tanh(beta w / 2)
            residue = _lorentz(terms, -1j * nu) / mp.pi
        else:
            nu = 2 * mp.pi * n / beta  # poles of coth(beta w / 2)
            z = -1j * nu
            residue = (z / mp.pi * _lorentz(terms, z) if family == "gldd"
                       else _meier_tannor(terms, z))
        term = residue * 2 / beta * mp.exp(-nu * t)
        total += term
        if nu * t > 10 and abs(term) < mp.mpf(10) ** -24 * abs(total):
            return complex(-1j * total)


def alpha0_meier_tannor(terms, beta):
    """alpha(0) = (1/pi) int_0^inf J(w) coth(beta w / 2) dw."""
    beta = mp.mpf(beta)
    terms = [tuple(map(mp.mpf, term)) for term in terms]
    knots = sorted({mp.mpf(0)} | {abs(w0) + gam for _, gam, w0 in terms})
    return float(mp.quad(lambda w: _meier_tannor(terms, w)
                         * mp.coth(beta * w / 2) / mp.pi, knots + [mp.inf]))


def alpha_powerlaw(amplitude, exponent, cutoff, stretching, beta, t):
    """alpha(t) of A w^s exp(-(w/wc)^q) by quadrature, split into pieces of
    about one period of cos(w t) beyond the first."""
    A, s, wc, q, beta, t = map(mp.mpf, (amplitude, exponent, cutoff,
                                        stretching, beta, t))
    top = wc * mp.mpf(60) ** (1 / q)  # J(top)/J(max) < 1e-24

    def J(w):
        return A * w**s * mp.exp(-(w / wc) ** q) / mp.pi

    pieces = int(top * t / (2 * mp.pi)) + 2
    knots = [top * k / pieces for k in range(pieces + 1)]

    def integrate(f):
        # tanh-sinh copes with the w**(s-1) head of a sub-ohmic density, but
        # needs extra working digits there to stay accurate to 1e-15
        with mp.workdps(34):
            head = mp.quad(f, knots[:2])
        return head + mp.quad(f, knots[1:], method="gauss-legendre")

    if t == 0:
        return complex(integrate(lambda w: J(w) * mp.coth(beta * w / 2)))
    re = integrate(lambda w: J(w) * mp.coth(beta * w / 2) * mp.cos(w * t))
    im = integrate(lambda w: J(w) * mp.sin(w * t))
    return complex(re, -im)


def lambda_tgldd(terms, beta):
    """int_0^inf J(w)/w dw for J = tanh(beta w/2) L(w) / pi."""
    beta = mp.mpf(beta)
    terms = [tuple(map(mp.mpf, term)) for term in terms]
    knots = sorted({mp.mpf(0)} | {abs(w0) + gam for _, gam, w0 in terms})
    return float(mp.quad(lambda w: mp.tanh(beta * w / 2) / w
                         * _lorentz(terms, w) / mp.pi, knots + [mp.inf]))


def series_values(p, omega, t):
    """sum_k p_k exp(omega_k t) at the times t (numpy, no bathkit code)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return (p[:, None] * np.exp(omega[:, None] * t[None, :])).sum(axis=0)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def read_table(path, columns):
    """A CSV table of numbers with a header row, as a 2-d array; every row
    must hold ``columns`` numbers (``np.loadtxt`` raises ValueError on any
    field that does not parse)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape[0] > 0 and data.shape[1] == columns,
             f"{path}: expected rows of {columns} numbers")
    return data


def read_series(path):
    data = read_table(path, 4)
    return data[:, 0] + 1j * data[:, 1], data[:, 2] + 1j * data[:, 3]


_RMS = re.compile(r"^best: K=\d+, scaled RMS (\S+)$", re.M)


def reported_rms(stderr):
    """The scaled RMS residual of the best fit, as ``fit`` prints it."""
    match = _RMS.search(stderr)
    _require(match is not None, "fit printed no 'best:' line")
    return float(match.group(1))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_alpha(path, prm, tol, count, reference):
    """Compare ``count`` seeded rows with t > 0 against ``reference(t)``,
    relative to the largest |alpha| the table reports for t > 0."""
    data = read_table(path, 3)
    t = data[:, 0]
    expect = np.linspace(0.0, prm["tmax"], prm["points"])
    _require(t.size == expect.size and np.allclose(t, expect, rtol=1e-14),
             f"{path}: unexpected time grid")
    alpha = data[:, 1] + 1j * data[:, 2]
    scale = np.max(np.abs(alpha[1:]))
    rng = random.Random(prm["check_seed"])
    rows = rng.sample(range(prm["first_row"], prm["last_row"] + 1), count)
    errors = []
    for i in rows:
        err = abs(alpha[i] - reference(float(t[i]))) / scale
        _require(err <= tol, f"{path}: alpha(t={t[i]:.6g}) off by {err:.2e}")
        errors.append(err)
    return errors


def _check_fit_decay(path):
    p, omega = read_series(path)
    _require(np.all(omega.real < 0), f"{path}: fitted series is not decaying")
    return p, omega


def check_series_route(job, stderrs):
    prm = job.params
    family, terms, beta = prm["family"], prm["terms"], prm["beta"]
    # Matsubara sums converge fast from t = 0.2 beta on
    errors = _check_alpha(
        job.outputs[0], dict(prm, first_row=8, last_row=200),
        TOLERANCE["alpha_series"], 3,
        lambda t: alpha_poles(family, terms, beta, t))
    with open(job.outputs[1], encoding="utf-8") as fh:
        value = float(fh.read())
    exact = (sum(lam for lam, _, _ in terms) if family == "gldd"
             else lambda_tgldd(terms, beta))
    err = abs(value - exact) / abs(exact)
    _require(err <= TOLERANCE["lambda"], f"lambda off by {err:.2e}")
    return errors + [err]


def check_mt_fit(job, stderrs):
    """|r_i| <= sqrt(N) * rms for every sample, where r is the residual
    scaled by max |alpha| = alpha(0)."""
    prm = job.params
    p, omega = _check_fit_decay(job.outputs[0])
    rms = reported_rms(stderrs[0])
    t_grid = np.linspace(0.0, prm["tmax"], prm["points"])
    alpha0 = alpha0_meier_tannor(prm["terms"], prm["beta"])
    rng = random.Random(prm["check_seed"])
    bound = math.sqrt(prm["points"]) * rms * (1 + 1e-3) + 1e-9
    for i in rng.sample(range(1, prm["points"]), 3):
        ref = alpha_poles("mt", prm["terms"], prm["beta"], t_grid[i])
        resid = abs(series_values(p, omega, t_grid[i])[0] - ref) / alpha0
        _require(resid <= bound,
                 f"fit residual {resid:.2e} at t={t_grid[i]:.6g} exceeds "
                 f"sqrt(N) * reported RMS = {bound:.2e}")
    return []


def check_powerlaw(job, stderrs):
    prm = job.params
    closed = job.kind == "powerlaw_fit"
    args = (prm["amplitude"], prm["exponent"], prm["cutoff"],
            prm["stretching"], prm["beta"])
    # rows with t <= ~1.5 keep the oscillatory reference cheap
    last = min(prm["points"] - 1,
               max(2, int(1.5 / prm["tmax"] * (prm["points"] - 1))))
    errors = _check_alpha(
        job.outputs[0], dict(prm, first_row=1, last_row=last),
        TOLERANCE["alpha_closed" if closed else "alpha_quadrature"],
        1 if closed else 2, lambda t: alpha_powerlaw(*args, t))
    if closed:
        p, omega = _check_fit_decay(job.outputs[1])
        rms = reported_rms(stderrs[1])
        data = read_table(job.outputs[0], 3)
        alpha = data[:, 1] + 1j * data[:, 2]
        resid = (alpha - series_values(p, omega, data[:, 0])) \
            / np.max(np.abs(alpha))
        actual = math.sqrt(np.sum(np.abs(resid) ** 2) / alpha.size)
        # the reported RMS is printed with 7 significant digits
        _require(actual <= rms * (1 + 1e-6) + 1e-15,
                 f"fit RMS {actual:.6e} exceeds the reported {rms:.6e}")
    return errors


def check_pade(job, stderrs):
    prm = job.params
    data = np.genfromtxt(job.outputs[0], delimiter=",", skip_header=1,
                         filling_values=np.nan)
    _require(data.shape == (prm["order"], 3), "pade: unexpected table shape")
    _require(np.all(np.isfinite(data[:, :2])) and np.all(
        np.isfinite(data[:-1, 2])), "pade: non-numeric entry")
    xi_hat = data[:, 0] * prm["beta"]
    weights = data[:, 1]
    rng = random.Random(prm["check_seed"])
    errors = []
    for _ in range(4):
        x = rng.uniform(-20.0, 20.0)
        rational = float(np.sum(2.0 * weights * x / (x**2 + xi_hat**2)))
        if prm["stat"] == "be":
            approx, exact = 1.0 / x + 0.5 + rational, 1.0 / -math.expm1(-x)
        else:
            approx, exact = 0.5 + rational, 1.0 / (1.0 + math.exp(-x))
        # below x ~ -10 the Bose function is exponentially small
        err = abs(approx - exact) / max(abs(exact), 1.0)
        _require(err <= TOLERANCE["pade"], f"pade off by {err:.2e} at x={x}")
        errors.append(err)
    return errors


def check_jw(job, stderrs):
    prm = job.params
    data = read_table(job.outputs[0], 2)
    w = np.linspace(0.0, prm["wmax"], prm["points"])
    _require(data.shape[0] == w.size and np.allclose(data[:, 0], w,
                                                     rtol=1e-14),
             "jw: unexpected frequency grid")
    p, omega = prm["p"], prm["omega"]
    resolvent = np.zeros(w.size, dtype=complex)
    for pk, ok in zip(p, omega):
        resolvent += pk / (ok + 1j * w)
    exact = -(1.0 - np.exp(-prm["beta"] * w)) * resolvent.real
    err = float(np.max(np.abs(data[:, 1] - exact)) / np.max(np.abs(exact)))
    _require(err <= TOLERANCE["jw"], f"jw off by {err:.2e}")
    return [err]


def _read_eta(path, N, strang):
    """The eta tables as arrays; checks the layout of every row."""
    with open(path, "rb") as fh:
        raw = fh.read()
    _require(raw.startswith(b"table,index,re_eta,im_eta\n"),
             "eta: unexpected header")
    names = ("diag", "lag", "k0", "Nk", "N0")
    counts = {name: raw.count(b"\n" + name.encode() + b",") for name in names}
    expect = {"diag": N + 1, "lag": N, "k0": N - 1 if strang else 0,
              "Nk": N - 1 if strang else 0, "N0": 1 if strang else 0}
    _require(counts == expect, f"eta: row counts {counts} != {expect}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3),
                      ndmin=2)
    index = [np.arange(N + 1), np.arange(1, N + 1)]
    if strang:
        index += [np.repeat(np.arange(1, N), 2), [0]]
    _require(np.array_equal(data[:, 0], np.concatenate(index)),
             "eta: rows out of order")
    value = data[:, 1] + 1j * data[:, 2]
    tables = {"diag": value[:N + 1], "lag": value[N + 1:2 * N + 1]}
    if strang:
        tables["k0"] = value[2 * N + 1:4 * N - 1:2]
        tables["Nk"] = value[2 * N + 2:4 * N - 1:2]
    return tables


def check_eta(job, stderrs):
    from bathkit.influence import eta_oracle

    prm = job.params
    N, dt = prm["steps"], prm["dt"]
    strang = prm["splitting"] == "strang"
    tables = _read_eta(job.outputs[0], N, strang)

    p, omega = prm["p"], prm["omega"]

    def alpha(t):
        return complex(series_values(p, omega, t)[0])

    shift = 1j * dt * prm["quapi"] / math.pi if prm["quapi"] else 0.0
    rng = random.Random(prm["check_seed"])
    m = rng.randint(2, 10)
    h = dt / 2.0
    # (stored value, oracle window, diagonal shift)
    cases = [(tables["diag"][1], ((0.0, dt), None, True), shift),
             (tables["lag"][0], ((dt, 2 * dt), (0.0, dt), False), 0.0),
             (tables["lag"][m - 1], ((m * dt, (m + 1) * dt), (0.0, dt),
                                     False), 0.0)]
    if strang:
        k = rng.randint(1, 10)
        cases += [
            (tables["diag"][0], ((0.0, h), None, True), shift),
            (tables["k0"][k - 1], ((k * dt - h, k * dt + h), (0.0, h),
                                   False), 0.0),
            (tables["Nk"][N - 2], ((N * dt - h, N * dt),
                                   ((N - 1) * dt - h, (N - 1) * dt + h),
                                   False), 0.0)]
    else:
        cases.append((tables["diag"][0], ((0.0, dt), None, True), shift))
    errors = []
    for value, (win_t, win_tp, tri), add in cases:
        ref = eta_oracle(alpha, win_t, win_tp, triangular=tri) + add
        err = abs(value - ref) / abs(ref)
        _require(err <= TOLERANCE["eta"], f"eta off by {err:.2e}")
        errors.append(err)
    return errors


CHECKS = {
    "gldd": check_series_route, "tgldd": check_series_route,
    "mt_fit": check_mt_fit,
    "powerlaw_subohmic": check_powerlaw, "powerlaw_stretched": check_powerlaw,
    "powerlaw_fit": check_powerlaw,
    "pade": check_pade, "jw": check_jw,
    "eta_trotter": check_eta, "eta_strang": check_eta,
    "eta_trotter_quapi": check_eta, "eta_strang_quapi": check_eta,
}


def check_job(job, stderrs):
    """Relative errors of the job's checked values; raises CheckFailed."""
    return CHECKS[job.kind](job, stderrs)
