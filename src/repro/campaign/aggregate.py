"""Campaign aggregation: per-method / per-scenario summary tables.

A campaign produces one result document per cell; the report distils
them into the cross-sections the paper reasons about — how does each
*method* fare over all scenarios (Table 3's rows, generalized), and
how hard is each *scenario* (ground model x wave) across methods.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.campaign.axes import AXES, AXIS, axis_values

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner -> here)
    from repro.campaign.runner import CellOutcome
    from repro.campaign.spec import CampaignSpec

__all__ = ["CampaignReport", "format_table"]


def format_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table (same layout the benchmarks emit)."""
    if not rows:
        return f"{title}\n{'=' * len(title)}\n(no rows)\n"
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


@dataclass
class CampaignReport:
    """Outcome of one campaign run, with aggregation helpers."""

    spec: "CampaignSpec"
    outcomes: list["CellOutcome"] = field(default_factory=list)

    # -- bookkeeping --------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self.outcomes)

    @property
    def n_cached(self) -> int:
        return sum(o.cached for o in self.outcomes)

    @property
    def n_computed(self) -> int:
        return sum(o.ok and not o.cached for o in self.outcomes)

    @property
    def n_failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def failures(self) -> list[tuple[str, str]]:
        return [(o.cell.label, o.error) for o in self.outcomes if not o.ok]

    # -- flat rows ----------------------------------------------------
    def rows(self) -> list[dict]:
        """One flat record per successful cell.

        Reduced once per report (every table of :meth:`render` groups
        the same rows); each call returns a fresh list over the shared,
        read-only records.
        """
        return list(self._rows)

    @functools.cached_property
    def _rows(self) -> tuple[dict, ...]:
        out = []
        for o in self.outcomes:
            if not o.ok:
                continue
            p = o.cell.params
            s = o.result.get("summary", {})
            out.append(
                {
                    **axis_values(p),
                    "model": p.get("model"),
                    "wave": p.get("wave", {}).get("name"),
                    "method": p.get("method"),
                    "resolution": "x".join(map(str, p.get("resolution", []))),
                    "n_dofs": o.result.get("n_dofs"),
                    "cached": o.cached,
                    "elapsed_per_step_per_case_s": s.get(
                        "elapsed_per_step_per_case_s"
                    ),
                    "iterations_per_step": s.get("iterations_per_step"),
                    "predictor_s_used": s.get("predictor_s_used"),
                    "achieved_relres": s.get("achieved_relres"),
                    "energy_per_step_per_case_J": s.get(
                        "energy_per_step_per_case_J"
                    ),
                }
            )
        return tuple(out)

    # -- cross-sections -----------------------------------------------
    def _grouped(self, key_fn) -> dict[tuple, list[dict]]:
        groups: dict[tuple, list[dict]] = {}
        for row in self._rows:
            groups.setdefault(key_fn(row), []).append(row)
        return groups

    @staticmethod
    def _agg(rows: list[dict]) -> dict:
        def mean_of(k):
            vals = [r[k] for r in rows if r[k] is not None]
            return float(np.mean(vals)) if vals else float("nan")

        def worst_of(k):
            vals = [r[k] for r in rows if r.get(k) is not None]
            return float(max(vals)) if vals else float("nan")

        return {
            "n_cells": len(rows),
            "elapsed_per_step_per_case_s": mean_of("elapsed_per_step_per_case_s"),
            "iterations_per_step": mean_of("iterations_per_step"),
            "predictor_s_used": mean_of("predictor_s_used"),
            "achieved_relres": worst_of("achieved_relres"),
            "energy_per_step_per_case_J": mean_of("energy_per_step_per_case_J"),
        }

    @staticmethod
    def _variant(r: dict) -> str:
        """Display name of a method variant: every solver axis at a
        non-default value is appended the way cell labels spell it
        (``method@p4``, ``method@fp21``, ``method@aitken``) —
        averaging across any of these axes would present a meaningless
        blend as the method's throughput.  The scenario is the workload,
        not the method: it groups :meth:`by_scenario`."""
        m = r["method"]
        for ax in AXES:
            if ax.solver and r[ax.key] != ax.default:
                m += "@" + ax.label.format(r[ax.key])
        return m

    def by_method(self) -> dict[str, dict]:
        """Mean per-cell metrics for each method variant (see
        :meth:`_variant`) over all scenarios."""
        return {
            k[0]: self._agg(rows)
            for k, rows in sorted(
                self._grouped(lambda r: (self._variant(r),)).items()
            )
        }

    def by_scenario(self) -> dict[tuple[str, str, str], dict]:
        """Mean per-cell metrics for each (scenario, model, wave)
        workload — the registered scenario first, then the ground
        structure and wave family it ran on.

        The mean runs over the campaign's whole method x nparts mix —
        every scenario carries the identical mix, so *relative*
        scenario hardness reads like-for-like; absolute values shift
        when the mix changes (as they always have when methods are
        added).
        """
        return {
            k: self._agg(rows)
            for k, rows in sorted(
                self._grouped(
                    lambda r: (r["scenario"], r["model"], r["wave"])
                ).items()
            )
        }

    def by_precision(self) -> dict[tuple[str, int, str], dict]:
        """Per (method, nparts, precision) aggregates, each annotated
        with the iteration inflation and speedup against its own fp64
        twin (``None`` when the campaign has no fp64 cell to anchor
        on) — the transprecision accuracy-vs-speed columns.
        """
        groups = self._grouped(
            lambda r: (r["method"], r["nparts"], r["precision"])
        )
        out: dict[tuple[str, int, str], dict] = {}
        for key, rows in sorted(groups.items()):
            method, nparts, prec = key
            agg = self._agg(rows)
            base = groups.get((method, nparts, AXIS["precision"].default))
            inflation = speedup = None
            if base is not None:
                ref = self._agg(base)
                if agg["iterations_per_step"] and ref["iterations_per_step"]:
                    inflation = (
                        agg["iterations_per_step"] / ref["iterations_per_step"]
                    )
                if agg["elapsed_per_step_per_case_s"]:
                    speedup = (
                        ref["elapsed_per_step_per_case_s"]
                        / agg["elapsed_per_step_per_case_s"]
                    )
            agg["iteration_inflation"] = inflation
            agg["speedup_vs_fp64"] = speedup
            out[key] = agg
        return out

    # -- rendering ----------------------------------------------------
    def method_table(self) -> str:
        rows = [
            [
                m,
                str(a["n_cells"]),
                f"{a['elapsed_per_step_per_case_s']:.3e}",
                f"{a['iterations_per_step']:.1f}",
                f"{a['energy_per_step_per_case_J']:.3e}",
            ]
            for m, a in self.by_method().items()
        ]
        return format_table(
            f"campaign {self.spec.name}: per-method summary",
            ["method", "cells", "t/step/case [s]", "iters/step", "J/step/case"],
            rows,
        )

    def precision_table(self) -> str:
        def fmt(v, spec: str, missing: str = "-") -> str:
            return missing if v is None or v != v else format(v, spec)

        rows = [
            [
                f"{m}@p{p}" if p != 1 else m,
                prec,
                f"{a['elapsed_per_step_per_case_s']:.3e}",
                fmt(a["speedup_vs_fp64"], ".2f"),
                f"{a['iterations_per_step']:.1f}",
                fmt(a["iteration_inflation"], ".3f"),
                fmt(a["achieved_relres"], ".2e"),
            ]
            for (m, p, prec), a in self.by_precision().items()
        ]
        return format_table(
            f"campaign {self.spec.name}: transprecision summary",
            ["method", "precision", "t/step/case [s]", "speedup",
             "iters/step", "inflation", "achieved relres"],
            rows,
        )

    def scenario_table(self) -> str:
        rows = [
            [
                scenario,
                model,
                wave,
                str(a["n_cells"]),
                f"{a['elapsed_per_step_per_case_s']:.3e}",
                f"{a['iterations_per_step']:.1f}",
                "-" if a["predictor_s_used"] != a["predictor_s_used"]
                else f"{a['predictor_s_used']:.1f}",
                f"{a['achieved_relres']:.2e}",
            ]
            for (scenario, model, wave), a in self.by_scenario().items()
        ]
        return format_table(
            f"campaign {self.spec.name}: per-scenario summary",
            ["scenario", "model", "wave", "cells", "t/step/case [s]",
             "iters/step", "s_used", "achieved relres"],
            rows,
        )

    def cache_line(self) -> str:
        return (
            f"cells: {self.n_cells} total, {self.n_computed} computed, "
            f"{self.n_cached} cache hits, {self.n_failed} failed"
        )

    def render(self) -> str:
        parts = [self.method_table(), self.scenario_table()]
        # the transprecision cross-section only earns its space when a
        # reduced-precision cell exists (fp64-only campaigns render as
        # they always have); a precision enters the params only when it
        # is not the default
        if any("precision" in o.cell.params for o in self.outcomes if o.ok):
            parts.append(self.precision_table())
        parts.append(self.cache_line())
        if self.n_failed:
            parts.append("failures:")
            parts.extend(f"  {label}: {err}" for label, err in self.failures())
        return "\n".join(parts)
