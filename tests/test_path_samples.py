"""`corollary_path_check` builds its stacked metrics from each sample's
parameters: every sample equals the single-point queries on that
sample's metric, and a path outside the normalized domain raises before
anything is computed."""

import math

import pytest

from relyamabe import (
    BergerParams,
    InvalidMetricError,
    corollary_path_check,
    criterion,
    curvature_report,
    su2_structure_constants,
    theorem1_check,
    volume_ratio,
)


@pytest.mark.parametrize("s, t_start, t_end, steps", [(1.0, 3.0, 4.0, 100), (2.25, 2.25, 6.25, 37)])
def test_samples_equal_single_point_queries(s, t_start, t_end, steps):
    report = corollary_path_check(s, t_start, t_end, steps)
    frame = su2_structure_constants()
    ref = BergerParams(s, t_start).metric()
    r_ref = curvature_report(frame, ref).scalar
    for t, *fields in report.samples.tolist():
        metric = BergerParams(s, t).metric()
        scalar = curvature_report(frame, metric).scalar
        check = theorem1_check(ref, r_ref, metric, scalar)
        assert tuple(fields) == (
            scalar,
            check.min_eig,
            volume_ratio(ref, metric),
            check.verdict,
        )


def test_out_of_domain_sample_raises(monkeypatch):
    def engine(*args):
        raise AssertionError("the engine ran before the domain check")

    # _ricci is the one engine of every path, the degenerate one included
    monkeypatch.setattr(criterion, "_ricci", engine)
    for s, t_start, t_end in [(2.0, 1.0, 4.0), (0.5, 3.0, 4.0), (2.0, 1.0, 1.0), (math.nan, 3.0, 4.0)]:
        with pytest.raises(InvalidMetricError):
            corollary_path_check(s, t_start, t_end, 10)
