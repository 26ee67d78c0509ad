"""ASCII visualization: loss curves and scaling plots for the terminal.

The benchmarks and examples render their figures as text so the
reproduction artifacts are self-contained (no plotting dependency).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.checks import require_count


def ascii_plot(series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
               width: int = 72, height: int = 20,
               logx: bool = False, logy: bool = False,
               xlabel: str = "x", ylabel: str = "y") -> str:
    """Plot named (x, y) series as an ASCII chart.

    Each series gets a marker from ``*+o x#@``; axes are linear or log.
    """
    if not series:
        raise ValueError("need at least one series")
    require_count("width", width, least=16)
    require_count("height", height, least=6)
    markers = "*+ox#@%&"

    def tx(v: np.ndarray) -> np.ndarray:
        return np.log10(v) if logx else v

    def ty(v: np.ndarray) -> np.ndarray:
        return np.log10(v) if logy else v

    all_x = np.concatenate([np.asarray(x, dtype=float)
                            for x, _ in series.values()])
    all_y = np.concatenate([np.asarray(y, dtype=float)
                            for _, y in series.values()])
    if logx and (all_x <= 0).any():
        raise ValueError("log x-axis requires positive x values")
    if logy and (all_y <= 0).any():
        raise ValueError("log y-axis requires positive y values")
    x_lo, x_hi = tx(all_x).min(), tx(all_x).max()
    y_lo, y_hi = ty(all_y).min(), ty(all_y).max()
    x_span = max(1e-12, x_hi - x_lo)
    y_span = max(1e-12, y_hi - y_lo)

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        mark = markers[idx % len(markers)]
        for x, y in zip(np.asarray(xs, dtype=float),
                        np.asarray(ys, dtype=float)):
            col = int((tx(np.array([x]))[0] - x_lo) / x_span * (width - 1))
            row = int((ty(np.array([y]))[0] - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = mark
    lines = ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lo_lbl = f"{10**x_lo:.3g}" if logx else f"{x_lo:.3g}"
    hi_lbl = f"{10**x_hi:.3g}" if logx else f"{x_hi:.3g}"
    lines.append(f" {xlabel}: {lo_lbl} .. {hi_lbl}    "
                 f"{ylabel}: "
                 + (f"{10**y_lo:.3g} .. {10**y_hi:.3g}" if logy
                    else f"{y_lo:.3g} .. {y_hi:.3g}"))
    legend = "   ".join(f"{markers[i % len(markers)]} {name}"
                        for i, name in enumerate(series))
    lines.append(f" legend: {legend}")
    return "\n".join(lines)


def loss_curve_plot(traces: Dict[str, Tuple[Sequence[float],
                                            Sequence[float]]],
                    width: int = 72, height: int = 18) -> str:
    """Fig 8-style plot: loss vs wall-clock time for several configs."""
    return ascii_plot(traces, width=width, height=height,
                      xlabel="wall clock (s)", ylabel="training loss")


def scaling_plot(points, width: int = 72, height: int = 18,
                 ideal: bool = True) -> str:
    """Fig 6/7-style plot from a list of :class:`ScalingPoint`."""
    series: Dict[str, Tuple[List[float], List[float]]] = {}
    for p in points:
        label = "sync" if p.mode == "sync" else f"hybrid-{p.n_groups}"
        xs, ys = series.setdefault(label, ([], []))
        xs.append(float(p.n_nodes))
        ys.append(float(p.speedup))
    if ideal and series:
        all_nodes = sorted({x for xs, _ in series.values() for x in xs})
        series["ideal"] = ([float(n) for n in all_nodes],
                           [float(n) for n in all_nodes])
    return ascii_plot(series, width=width, height=height,
                      xlabel="# nodes", ylabel="speedup")
