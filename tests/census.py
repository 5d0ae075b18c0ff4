"""Census of the examples the hypothesis properties of test_properties.py draw.

    PYTHONPATH=src python tests/census.py

A property passes just as well on examples that cannot show a fault: a 1 x 1
grid has no cell pairs and no interior node, a square grid cannot tell t
from x, one or two particles make a thin cloud, and a zero rate switches the
mean-reversion drift off.  For each property drawn from a composite strategy
this script prints how many of its examples have min(nt, nx) >= 3,
nt != nx, M >= 3 and, where the field has a rate, a nonzero one.  The last
two columns read "count / the examples that have an M or a rate", or "-"
where none has.  An example with several grids counts its smallest.

The examples are the property's own: its body is swapped for a recorder and
the run is seeded as derandomize seeds it, from the digest of the property's
original function, so the census sees the list the suite runs, explicit
``@example``s included.  That digest comes from ``hypothesis.internal``,
which a Hypothesis release may move.  The census is a report and always
exits 0.
"""

from __future__ import annotations

from hypothesis import seed
from hypothesis.internal.compat import int_from_bytes
from hypothesis.internal.reflection import function_digest

import test_properties as tp


def _hinted_rate(field):
    """A mean-reversion field's rate up to sign (its hint is 2 |rate|), or
    None for a field without one."""
    return None if field.lipschitz_hint is None else field.lipschitz_hint / 2


def _ou(case):
    rate, _, _, M, grid, _ = case
    return [grid], M, rate


# property -> the (grids, M or None, rate or None) of one example, from the
# keyword arguments the property is called with
PROPERTIES = {
    tp.test_closed_form_is_the_row_loop_bit_for_bit: lambda kw: ([kw["problem"][2]], None, None),
    tp.test_closed_form_telescopes_to_the_discrete_integrals: lambda kw: ([kw["problem"][2]], None, None),
    tp.test_state_free_ensemble_is_each_particles_own_solve: lambda kw: ([kw["problem"][2]], kw["M"], None),
    tp.test_ito_study_is_the_public_chain_per_replicate: lambda kw: (kw["study"][3], None, None),
    tp.test_ou_cloud_mean_is_the_drift_free_sheet_average: lambda kw: (
        [kw["problem"][4]],
        kw["problem"][3],
        _hinted_rate(kw["problem"][0]),
    ),
    tp.test_ou_deviations_are_the_scalar_recursion_at_minus_rate: lambda kw: _ou(kw["case"]),
    tp.test_ou_picard_gaps_are_the_exact_iterate_differences: lambda kw: _ou(kw["case"]),
    tp.test_picard_reaches_the_direct_solve_in_min_nt_nx_iterates: lambda kw: (
        [kw["problem"][3]],
        kw["problem"][2],
        _hinted_rate(kw["problem"][0]),
    ),
    tp.test_five_term_sums_are_the_brute_force_pair_loop: lambda kw: (
        [kw["case"][0].grid],
        kw["case"][0].particles,
        None,
    ),
}


def draw_examples(prop) -> list[dict]:
    """The keyword arguments of each example ``prop`` runs under its own
    settings, in order; ``prop`` is left with a recorder for a body."""
    seen = []
    seed(int_from_bytes(function_digest(prop.hypothesis.inner_test)))(prop)
    prop.hypothesis.inner_test = lambda **kwargs: seen.append(kwargs)
    prop()
    return seen


def main() -> int:
    print(f"{'property':62s} {'examples':>8s} {'min>=3':>7s} {'nt!=nx':>7s} {'M>=3':>7s} {'rate!=0':>8s}")
    for prop, features in PROPERTIES.items():
        name = prop.__name__
        drawn = [features(kwargs) for kwargs in draw_examples(prop)]
        smallest = [min(grids, key=lambda g: min(g.nt, g.nx)) for grids, _, _ in drawn]
        wide = sum(min(g.nt, g.nx) >= 3 for g in smallest)
        oblong = sum(g.nt != g.nx for g in smallest)
        crowds = [M for _, M, _ in drawn if M is not None]
        rates = [rate for _, _, rate in drawn if rate is not None]
        crowded = f"{sum(M >= 3 for M in crowds)}/{len(crowds)}" if crowds else "-"
        moving = f"{sum(rate != 0 for rate in rates)}/{len(rates)}" if rates else "-"
        print(f"{name:62s} {len(drawn):8d} {wide:7d} {oblong:7d} {crowded:>7s} {moving:>8s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
