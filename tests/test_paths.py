"""Stored paths: frames keep geometry only, and the writers stream the same bytes.

The reference writers and the basis-keeping member below are copies of the
code that built every file as one string and let each stored frame keep
the band basis of the stage it came from; the files and the report must
not tell the two apart.
"""

import json
import tracemalloc

import numpy as np
import pytest

from fracsob import cli, solvers
from fracsob.checks import random_curve_samples, random_field
from fracsob.cli import load_config, main
from fracsob.curves import Diffeo, DiscreteCurve, make_curve, write_samples
from fracsob.metric import MetricConfig, metric, path_energy
from fracsob.operators import apply_conjugated
from fracsob.solvers import (
    Frame,
    GeodesicPath,
    conservation_report,
    exp_map,
    exp_map_spray,
    geodesic_bvp,
    path_to_csv,
    path_to_json,
    path_to_svg,
)
from fracsob.spectral import grid
from fracsob.symbols import bessel_fractional

BESSEL = MetricConfig(bessel_fractional(1.5))


def reference_csv(path):
    d = path.frames[0].curve.dim
    header = ["t", "k"] + [f"x{i + 1}" for i in range(d)] + [f"v{i + 1}" for i in range(d)]
    lines = [",".join(header)]
    for f in path.frames:
        vel = f.velocity if f.velocity is not None else np.zeros_like(f.curve.samples)
        t = repr(float(f.t))
        rows = np.concatenate([f.curve.samples, vel], axis=1).tolist()
        lines.extend(f"{t},{k}," + ",".join(map(repr, row)) for k, row in enumerate(rows))
    return "\n".join(lines) + "\n"


def reference_json(path):
    frames = []
    for f in path.frames:
        frames.append(
            {
                "t": float(f.t),
                "samples": f.curve.samples.tolist(),
                "velocity": None if f.velocity is None else np.asarray(f.velocity).tolist(),
                "momentum": None if f.momentum is None else np.asarray(f.momentum).tolist(),
            }
        )
    return json.dumps(
        {
            "scheme": path.scheme,
            "steps": path.steps,
            "n": path.frames[0].curve.n,
            "dim": path.frames[0].curve.dim,
            "frames": frames,
        }
    )


def reference_svg(path):
    frames, size, margin = path.frames, 480, 24.0
    pts = np.concatenate([f.curve.samples[:, :2] for f in frames])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    inner = size - 2.0 * margin

    def project(xy):
        u = margin + (xy[:, 0] - lo[0]) / span * inner
        v = size - margin - (xy[:, 1] - lo[1]) / span * inner
        return u, v

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    last = max(len(frames) - 1, 1)
    for i, f in enumerate(frames):
        frac = i / last
        color = f"rgb({int(round(220 * frac))},40,{int(round(220 * (1 - frac)))})"
        xy = np.concatenate([f.curve.samples[:, :2], f.curve.samples[:1, :2]])
        u, v = project(xy)
        coords = " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(u, v))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def basis_keeping_member(self, i):
    psi = Diffeo(self.psi.displacement[i])
    if "band_basis" in vars(self.psi):
        vars(psi)["band_basis"] = self.psi.band_basis[i]
    return DiscreteCurve(self.samples[i], self.speed[i], float(self.length[i]), self.unit_tangent[i], psi)


def start(seed, n=64, d=2):
    rng = np.random.default_rng(seed)
    return random_curve_samples(rng, n=n, dim=d, amplitude=0.10), 0.5 * random_field(rng, n, dim=d)


def with_bases(path):
    return [f.t for f in path.frames if "band_basis" in vars(f.curve.psi)]


def produced_paths():
    """A path of each producer: exp_map, exp_map_spray, a batch of two, geodesic_bvp."""
    c0, h0 = start(0)
    c1, h1 = start(1)
    theta = grid(32)
    circle = make_curve(np.column_stack([np.cos(theta), np.sin(theta)]))
    h_true = 0.1 * np.column_stack([np.cos(theta) + 0.3 * np.sin(2 * theta), np.sin(theta)])
    target = exp_map(BESSEL, circle, h_true, T=1.0, steps=32, stride=32).endpoint
    pair = solvers._geodesics(BESSEL, make_curve(np.stack([c0, c1])), np.stack([h0, h1]), 0.25, 16, 1)
    return {
        "exp_map": exp_map(BESSEL, make_curve(c0), h0, T=0.25, steps=16, stride=1),
        "exp_map_spray": exp_map_spray(BESSEL, make_curve(c0), h0, T=0.25, steps=16, stride=4),
        "batch member 0": pair[0],
        "batch member 1": pair[1],
        "geodesic_bvp": geodesic_bvp(BESSEL, circle, target, K=3, steps=32, T=1.0).path,
    }


def test_no_stored_frame_carries_a_band_basis_before_or_after_the_readers():
    for name, path in produced_paths().items():
        assert with_bases(path) == [], name
        conservation_report(path)
        path_energy(BESSEL, path)
        assert with_bases(path) == [], name


def test_the_callers_curves_cache_no_band_basis():
    # the integrators run on their own batch; the caller's curves are only read
    samples, h0 = start(3)
    c0 = make_curve(samples)
    exp_map(BESSEL, c0, h0, T=0.25, steps=16, stride=4)
    exp_map_spray(BESSEL, c0, h0, T=0.25, steps=16, stride=16)
    theta = grid(32)
    circle = make_curve(np.column_stack([np.cos(theta), np.sin(theta)]))
    h_true = 0.1 * np.column_stack([np.cos(theta) + 0.3 * np.sin(2 * theta), np.sin(theta)])
    target = make_curve(exp_map(BESSEL, circle, h_true, T=1.0, steps=32, stride=32).endpoint.samples)
    assert geodesic_bvp(BESSEL, circle, target, K=3, steps=32, T=1.0).converged
    for c in (c0, circle, target):
        assert "band_basis" not in vars(c.psi)
        assert "_operator_core" not in vars(c)


def test_the_report_reads_the_same_energies_as_frames_that_kept_their_bases(monkeypatch):
    samples, h0 = start(2)
    path = exp_map(BESSEL, make_curve(samples), h0, T=0.5, steps=32, stride=1)
    monkeypatch.setattr(DiscreteCurve, "member", basis_keeping_member)
    kept = exp_map(BESSEL, make_curve(samples), h0, T=0.5, steps=32, stride=1)
    assert len(with_bases(kept)) == len(kept.frames) == 33
    assert with_bases(path) == []
    for f, g in zip(path.frames, kept.frames):
        assert np.array_equal(f.curve.samples, g.curve.samples)
        assert np.array_equal(f.velocity, g.velocity)
    energies = np.array([metric(BESSEL, f.curve, f.velocity, f.velocity) for f in kept.frames])
    drift = float(np.max(np.abs(energies - energies[0])) / max(abs(energies[0]), 1e-300))
    report = conservation_report(path)
    assert np.array_equal(report.energies, energies)
    assert report.energy_drift == drift
    dt = np.diff(kept.times)
    dens = 0.5 * energies
    assert path_energy(BESSEL, path) == float(np.sum(0.5 * (dens[1:] + dens[:-1]) * dt))


def test_an_uncached_copy_shares_the_geometry_and_rebuilds_the_basis_bitwise():
    (c0, _), (c1, h1) = start(0), start(1)
    c = make_curve(np.stack([c0, c1]))
    member = c.member(1)
    basis = member.psi.band_basis
    copy = member.uncached()
    assert "band_basis" not in vars(copy.psi)
    assert copy.samples is member.samples and copy.psi.displacement is member.psi.displacement
    assert np.array_equal(copy.psi.band_basis, basis)
    assert np.array_equal(copy.psi.band_basis, c.psi.band_basis[1])
    assert np.array_equal(apply_conjugated(copy, BESSEL.symbol, "identity", h1),
                          apply_conjugated(member, BESSEL.symbol, "identity", h1))


def hand_built_paths():
    """d = 3 frames with and without velocity and momentum, a single frame, an
    exp_map path, and frames whose velocity and momentum are integer arrays."""
    theta = grid(16)
    frames = []
    for i, t in enumerate((0.0, 0.5, 1.25)):
        samples = np.column_stack([np.cos(theta), (1.0 + 0.1 * t) * np.sin(theta), 0.2 * t * np.sin(2 * theta)])
        vel = None if i == 1 else 0.1 * (i + 1) * samples
        mom = None if i != 0 else -vel
        frames.append(Frame(t, make_curve(samples), vel, mom))
    single = Frame(0.0, make_curve(np.column_stack([np.cos(theta), np.sin(theta)])), None, None)
    c0, h0 = start(4)
    ints = np.arange(32).reshape(16, 2) - 5
    integer = (Frame(0.0, single.curve, ints, -ints), Frame(1.0, single.curve, np.zeros((16, 2), dtype=int), None))
    return [
        GeodesicPath(tuple(frames), BESSEL, scheme="hand", steps=3),
        GeodesicPath((single,), BESSEL),
        exp_map(BESSEL, make_curve(c0), h0, T=0.25, steps=16, stride=3),
        GeodesicPath(integer, BESSEL, scheme="hand", steps=1),
    ]


@pytest.mark.parametrize("index", range(4))
def test_the_writers_give_the_bytes_of_the_one_string_writers(index):
    path = hand_built_paths()[index]
    assert path_to_csv(path) == reference_csv(path)
    assert path_to_json(path) == reference_json(path)
    assert path_to_svg(path) == reference_svg(path)


@pytest.mark.parametrize("d", [2, 3])
def test_the_cli_files_are_the_bytes_of_the_one_string_writers(tmp_path, monkeypatch, capsys, d):
    samples, h0 = start(5, d=d)
    write_samples(tmp_path / "c0.json", samples)
    write_samples(tmp_path / "h0.json", h0)
    (tmp_path / "config.json").write_text(json.dumps({"metric": {"family": "bessel_fractional", "r": 1.5, "d": d}}))
    paths = []

    def keep(*args, **kwargs):
        paths.append(exp_map(*args, **kwargs))
        return paths[-1]

    monkeypatch.setattr(cli, "exp_map", keep)
    out = tmp_path / "out"
    assert main(["exp", "--config", str(tmp_path / "config.json"), "--curve", str(tmp_path / "c0.json"),
                 "--velocity", str(tmp_path / "h0.json"), "--steps", "16", "--T", "0.25",
                 "--out", str(out)]) == 0
    [path] = paths
    assert path.frames[0].curve.dim == d
    assert (out / "path.csv").read_bytes() == reference_csv(path).encode()
    assert (out / "path.json").read_bytes() == reference_json(path).encode()
    assert (out / "path.svg").read_bytes() == reference_svg(path).encode()


def test_a_stored_path_retains_its_geometry_only():
    samples, h0 = start(6, n=256)
    # the warm-up fills the per-N caches (grid phases, mode matrices)
    exp_map(BESSEL, make_curve(samples), h0, T=1.0, steps=16, stride=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        path = exp_map(BESSEL, make_curve(samples), h0, T=1.0, steps=32, stride=1)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(path.frames) == 33
    # measured 0.74 MB; 12.4 MB when every frame kept its stage's band basis
    assert retained < 1.5e6


def test_writing_the_artifacts_holds_about_one_frame_of_text(tmp_path):
    samples, h0 = start(7)
    path = exp_map(BESSEL, make_curve(samples), h0, T=1.0, steps=200, stride=1)
    cfg = load_config(None, {"io.out_dir": str(tmp_path)})
    cli._write_path_artifacts(path, cfg, "warm")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._write_path_artifacts(path, cfg, "path")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(path.frames) == 201
    # measured 0.12 MB; 9.5 MB when each file was built as one string
    assert peak < 0.25e6
    for name in ("path.csv", "path.json", "path.svg", "path_conservation.json"):
        assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("path", "warm")).read_bytes()
