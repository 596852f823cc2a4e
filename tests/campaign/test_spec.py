"""Campaign spec: grid expansion, seeds, serialization, validation."""

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignSpec,
    WaveSpec,
    cell_key,
    default_waves,
    derive_seed,
)


def make_spec(**over):
    kw = dict(
        name="t",
        models=("stratified", "basin"),
        waves=default_waves(2),
        methods=("crs-cg@gpu",),
        resolutions=((2, 2, 1),),
        cases=2,
        steps=4,
    )
    kw.update(over)
    return CampaignSpec(**kw)


def test_grid_expansion_counts():
    spec = make_spec(models=("stratified", "basin", "slanted"),
                     methods=("crs-cg@gpu", "ebe-mcg@cpu-gpu"))
    cells = spec.cells()
    assert spec.n_cells == 3 * 2 * 2 * 1 == len(cells)
    assert len({c.key for c in cells}) == len(cells)  # all distinct


def test_cells_deterministic():
    a = make_spec().cells()
    b = make_spec().cells()
    assert [c.key for c in a] == [c.key for c in b]
    assert [c.params["seed"] for c in a] == [c.params["seed"] for c in b]


def test_seed_content_derived_stable_under_grid_growth():
    """Growing the grid must not reseed (or re-key) existing cells."""
    small = {c.label: c for c in make_spec().cells()}
    grown = {c.label: c for c in make_spec(
        models=("stratified", "basin", "slanted"),
        methods=("crs-cg@gpu", "ebe-mcg@cpu-gpu"),
    ).cells()}
    for label, cell in small.items():
        assert grown[label].key == cell.key
        assert grown[label].params["seed"] == cell.params["seed"]


def test_seed_changes_with_campaign_seed():
    s0 = make_spec(seed=0).cells()[0].params["seed"]
    s1 = make_spec(seed=1).cells()[0].params["seed"]
    assert s0 != s1


def test_nparts_axis_expands_cells():
    spec = make_spec(models=("stratified",), methods=("ebe-mcg@cpu-gpu",),
                     nparts=(1, 2, 4))
    cells = spec.cells()
    assert spec.n_cells == 1 * 2 * 1 * 1 * 3 == len(cells)
    assert len({c.key for c in cells}) == len(cells)
    labels = [c.label for c in cells if c.params.get("nparts")]
    assert all(label.endswith(("/p2", "/p4")) for label in labels)


def test_nparts_one_keeps_pre_axis_cell_hash():
    """Adding the nparts axis must not invalidate cached single-part
    cells: nparts == 1 leaves the cell params (and hash) untouched."""
    base = make_spec(models=("stratified",), methods=("ebe-mcg@cpu-gpu",))
    grown = make_spec(models=("stratified",), methods=("ebe-mcg@cpu-gpu",),
                      nparts=(1, 2))
    base_keys = {c.label: c.key for c in base.cells()}
    for cell in grown.cells():
        if "nparts" not in cell.params:
            assert cell.key == base_keys[cell.label]
        else:
            assert cell.key not in base_keys.values()
    # the scenario seed is nparts-independent: scaling sweeps compare
    # identical physics
    seeds = {c.params["seed"] for c in grown.cells()}
    assert len(seeds) == len(base.cells())


def test_nparts_requires_partitionable_methods():
    with pytest.raises(ValueError):
        make_spec(methods=("crs-cg@gpu",), nparts=(1, 2))
    with pytest.raises(ValueError):
        make_spec(methods=("ebe-mcg@cpu-gpu",), nparts=())
    with pytest.raises(ValueError):
        make_spec(methods=("ebe-mcg@cpu-gpu",), nparts=(0,))


def test_nparts_axis_skips_baseline_methods():
    """A mixed grid fans only partitionable methods over the axis:
    baselines run once, so distributed-vs-baseline comparisons fit in
    one cached campaign."""
    spec = make_spec(models=("stratified",),
                     methods=("crs-cg@gpu", "ebe-mcg@cpu-gpu"),
                     nparts=(1, 2, 4))
    cells = spec.cells()
    assert spec.n_cells == len(cells) == 2 * (1 + 3)  # 2 waves x (crs + 3 ebe)
    by_method = {}
    for c in cells:
        by_method.setdefault(c.params["method"], []).append(
            c.params.get("nparts", 1)
        )
    assert by_method["crs-cg@gpu"] == [1, 1]
    assert by_method["ebe-mcg@cpu-gpu"] == [1, 2, 4, 1, 2, 4]


def test_module_validated():
    """A typo'd module name must fail at spec time, not silently model
    the wrong hardware per cell."""
    with pytest.raises(ValueError, match="unknown module"):
        make_spec(module="single_gh200")


def test_nparts_roundtrips_through_json(tmp_path):
    spec = make_spec(models=("stratified",), methods=("ebe-mcg@cpu-gpu",),
                     nparts=(1, 4))
    path = spec.to_json(tmp_path / "spec.json")
    again = CampaignSpec.from_json(path)
    assert again.nparts == (1, 4)
    assert [c.key for c in again.cells()] == [c.key for c in spec.cells()]


def test_key_reflects_content():
    c = make_spec().cells()[0]
    changed = dict(c.params, steps=c.params["steps"] + 1)
    assert cell_key(c.kind, changed) != c.key
    assert cell_key(c.kind, dict(c.params)) == c.key


def test_derive_seed_deterministic():
    assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
    assert derive_seed(1, "a", "b") != derive_seed(1, "a", "c")


def test_json_roundtrip(tmp_path):
    spec = make_spec(methods=("crs-cg@gpu", "ebe-mcg@cpu-gpu"))
    path = spec.to_json(tmp_path / "spec.json")
    back = CampaignSpec.from_json(path)
    assert back == spec
    assert [c.key for c in back.cells()] == [c.key for c in spec.cells()]


def test_validation_errors():
    with pytest.raises(ValueError):
        make_spec(models=("mars",))
    with pytest.raises(ValueError):
        make_spec(methods=("magic",))
    with pytest.raises(ValueError):
        make_spec(models=())
    with pytest.raises(ValueError):
        make_spec(resolutions=((2, 2),))
    with pytest.raises(ValueError):
        make_spec(steps=0)
    # heterogeneous methods demand even ensembles
    with pytest.raises(ValueError):
        make_spec(methods=("ebe-mcg@cpu-gpu",), cases=3)
    with pytest.raises(ValueError):
        CampaignSpec.from_dict({"name": "x", "models": ["stratified"],
                                "waves": [], "methods": [], "bogus": 1})


@pytest.mark.parametrize(
    "over, noun",
    [
        (dict(models=("stratified", "stratified")), "model"),
        (dict(waves=(WaveSpec("w0", 1e6), WaveSpec("w0", 3e6))), "wave name"),
        (dict(methods=("crs-cg@gpu", "crs-cg@gpu")), "method"),
        (dict(resolutions=((2, 2, 1), [2, 2, 1])), "resolution"),
    ],
    ids=["models", "waves", "methods", "resolutions"],
)
def test_duplicate_grid_entries_rejected(over, noun):
    """A repeated entry would run one cell twice under one label (two
    waves named alike share label and seed, and merge into one
    scenario row) or double-weight it in every aggregate."""
    with pytest.raises(ValueError, match=f"duplicate {noun} entries"):
        make_spec(**over)


def test_distinct_waves_sharing_parameters_are_accepted():
    """Wave identity is the name: two families that differ only in name
    are a legitimate grid."""
    spec = make_spec(waves=(WaveSpec("a"), WaveSpec("b")))
    assert len({c.params["seed"] for c in spec.cells()}) == spec.n_cells


def test_wavespec_roundtrip():
    w = WaveSpec(name="w9", amplitude=2e6, f0_factor=0.4)
    assert WaveSpec.from_dict(w.to_dict()) == w
    assert len(default_waves(3)) == 3
    assert len({w.name for w in default_waves(3)}) == 3


def test_cell_label_and_kind():
    c = make_spec().cells()[0]
    assert isinstance(c, CampaignCell)
    assert c.kind == "method"
    assert "stratified" in c.label


def test_precision_axis_expands_cells():
    spec = make_spec(models=("stratified",),
                     precision=("fp64", "fp32", "fp21"))
    cells = spec.cells()
    assert spec.n_cells == 1 * 2 * 1 * 1 * 3 == len(cells)
    assert len({c.key for c in cells}) == len(cells)
    labels = [c.label for c in cells if c.params.get("precision")]
    assert all(label.endswith(("/fp32", "/fp21")) for label in labels)


def test_precision_fp64_keeps_pre_axis_cell_hash():
    """Adding the precision axis must not invalidate cached fp64
    cells: fp64 leaves the cell params (and hash) untouched."""
    base = make_spec(models=("stratified",))
    grown = make_spec(models=("stratified",),
                      precision=("fp64", "fp21"))
    base_keys = {c.label: c.key for c in base.cells()}
    for cell in grown.cells():
        if "precision" not in cell.params:
            assert cell.key == base_keys[cell.label]
        else:
            assert cell.key not in base_keys.values()
    # the scenario seed is precision-independent: every precision
    # solves identical physics
    seeds = {c.params["seed"] for c in grown.cells()}
    assert len(seeds) == len(base.cells())


def test_precision_axis_composes_with_nparts():
    spec = make_spec(models=("stratified",), methods=("ebe-mcg@cpu-gpu",),
                     nparts=(1, 2), precision=("fp64", "fp21"))
    cells = spec.cells()
    assert spec.n_cells == 2 * 2 * 2 == len(cells)  # waves x nparts x prec
    combos = {(c.params.get("nparts", 1), c.params.get("precision", "fp64"))
              for c in cells}
    assert combos == {(1, "fp64"), (1, "fp21"), (2, "fp64"), (2, "fp21")}


def test_precision_validation():
    with pytest.raises(ValueError, match="unknown precision"):
        make_spec(precision=("fp64", "fp8"))
    with pytest.raises(ValueError):
        make_spec(precision=())
    with pytest.raises(ValueError, match="duplicate"):
        make_spec(precision=("fp21", "fp21"))


def test_precision_roundtrips_through_json(tmp_path):
    spec = make_spec(models=("stratified",), precision=("fp64", "fp21"))
    path = spec.to_json(tmp_path / "spec.json")
    again = CampaignSpec.from_json(path)
    assert again.precision == ("fp64", "fp21")
    assert [c.key for c in again.cells()] == [c.key for c in spec.cells()]
