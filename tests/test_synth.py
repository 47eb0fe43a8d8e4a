"""Synthetic generator: determinism, calibration accuracy, split structure,
byte identity with the one-shot referee, and peak memory."""

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import per_row_strings
from ctrbias import synth
from ctrbias.errors import CalibrationError, ConfigError
from ctrbias.evaluation import blocks_of, group_stats
from ctrbias.synth import SPLIT_FRACTIONS, SynthConfig, generate

CFG = SynthConfig(n_users=60, n_items=40, n_groups=4, exposures_per_user=30,
                  unbiased_val_per_user=3, unbiased_test_per_user=5, seed=5)
SPLIT_ARRAYS = ("indices", "values", "labels", "user_ids", "item_ids", "timestamps",
                "user_vocab", "item_vocab")
# worlds for the referee: label odds that differ from the exposure policy's
# preference, a strongly skewed group frequency with a user count that
# blocks of 3 do not divide, and one where both block loops of generate run
# more than once at their default sizes
WORLDS = {
    "item_offsets": SynthConfig(**{**CFG.__dict__, "item_offset_scale": 0.5,
                                   "group_freq_decay": 1.0}),
    "skewed_groups": SynthConfig(n_users=50, n_items=40, n_groups=5,
                                 exposures_per_user=30, unbiased_val_per_user=3,
                                 unbiased_test_per_user=5, group_freq_decay=0.6,
                                 seed=11),
    "several_blocks": SynthConfig(n_users=600, n_items=400, n_groups=8,
                                  exposures_per_user=60, unbiased_val_per_user=4,
                                  unbiased_test_per_user=12, pref_scale=1.5,
                                  item_offset_scale=0.4, temp_high=4.0, seed=3),
}


@pytest.fixture(scope="module")
def result():
    return generate(CFG)


# skewed_groups misses its target ratios by more than synth.REALIZED_TOL
WORLD_TOL = 0.2


@pytest.fixture(scope="module", params=sorted(WORLDS))
def world(request):
    cfg = WORLDS[request.param]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "REALIZED_TOL", WORLD_TOL)
        return cfg, oracles.generate_reference(cfg)


def assert_bytes_equal(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


def assert_same_world(a, b):
    """Every split array (dtype included), split tag and truth entry."""
    assert a.schema == b.schema
    assert a.splits.keys() == b.splits.keys()
    for tag in a.splits:
        x, y = a.splits[tag], b.splits[tag]
        assert x.split_tag == y.split_tag == tag
        assert x.bias_labels == y.bias_labels
        for name in SPLIT_ARRAYS:
            assert_bytes_equal(getattr(x, name), getattr(y, name))
    assert a.truth.keys() == b.truth.keys()
    for key in a.truth:
        assert_bytes_equal(a.truth[key], b.truth[key])


def returned_bytes(r):
    return (sum(getattr(ds, name).nbytes for ds in r.splits.values()
                for name in SPLIT_ARRAYS)
            + sum(np.asarray(v).nbytes for v in r.truth.values()))


class TestConfigValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_groups=1)
        with pytest.raises(ConfigError):
            SynthConfig(n_items=3, n_groups=4)
        with pytest.raises(ConfigError):
            SynthConfig(n_users=0)
        with pytest.raises(ConfigError):
            SynthConfig(n_items=10, unbiased_val_per_user=6,
                        unbiased_test_per_user=5)
        with pytest.raises(ConfigError):
            SynthConfig(temp_low=2.0, temp_high=1.0)
        with pytest.raises(ConfigError):
            SynthConfig(temp_low=0.0)
        with pytest.raises(ConfigError):
            SynthConfig(group_freq_decay=0.0)
        with pytest.raises(ConfigError):
            SynthConfig(item_offset_scale=-1.0)
        with pytest.raises(ConfigError):
            SynthConfig(n_groups=4, rho=(0.2, 0.4))
        with pytest.raises(ConfigError):
            SynthConfig(n_groups=2, rho=(0.0, 0.5))
        nan, inf = float("nan"), float("inf")
        for bad in ({"pref_scale": nan}, {"pref_scale": inf},
                    {"item_offset_scale": nan}, {"item_offset_scale": inf},
                    {"temp_low": nan}, {"temp_high": nan}, {"temp_high": inf},
                    {"n_groups": 2, "rho": (nan, 0.5)},
                    {"unbiased_val_per_user": -1}, {"unbiased_test_per_user": -1},
                    {"pref_dim": 0}):
            with pytest.raises(ConfigError):
                SynthConfig(**bad)

    def test_default_rho_is_linspace(self):
        cfg = SynthConfig(n_groups=5)
        assert np.allclose(cfg.resolved_rho(), np.linspace(0.1, 0.9, 5))


class TestDeterminism:
    def test_equal_configs_give_identical_worlds(self):
        assert_same_world(generate(CFG), generate(CFG))

    def test_different_seed_changes_labels(self):
        cfg2 = SynthConfig(**{**CFG.__dict__, "seed": 6})
        b = generate(cfg2)
        a = generate(CFG)
        assert not np.array_equal(a.train.labels, b.train.labels)


class TestStructure:
    def test_split_sizes(self, result):
        n_b = CFG.n_users * CFG.exposures_per_user
        f_train, f_val, _ = SPLIT_FRACTIONS
        c1 = int(round(n_b * f_train))
        c2 = int(round(n_b * (f_train + f_val)))
        assert len(result.train) == c1
        assert len(result.val) == c2 - c1
        assert len(result.test) == n_b - c2
        assert len(result.unbiased_val) == CFG.n_users * CFG.unbiased_val_per_user
        assert len(result.unbiased_test) == CFG.n_users * CFG.unbiased_test_per_user

    def test_schema_covers_user_item_group(self, result):
        s = result.schema
        assert s.field_names == ("user", "item", "group")
        assert s.num_groups == CFG.n_groups
        assert s.n == CFG.n_users + CFG.n_items + CFG.n_groups

    def test_group_feature_matches_item_group(self, result):
        group_of = result.truth["group_of_item"]
        for ds in result.splits.values():
            items = ds.indices[:, 1] - CFG.n_users
            groups = ds.indices[:, 2] - CFG.n_users - CFG.n_items
            assert np.array_equal(groups, group_of[items])

    def test_biased_timestamps_are_a_permutation(self, result):
        stamps = np.concatenate([result.train.timestamps, result.val.timestamps,
                                 result.test.timestamps])
        n_b = CFG.n_users * CFG.exposures_per_user
        assert np.array_equal(np.sort(stamps), np.arange(n_b))
        # chronological split means train holds exactly the smallest stamps
        assert result.train.timestamps.max() < result.val.timestamps.min()
        assert result.val.timestamps.max() < result.test.timestamps.min()

    def test_unbiased_items_unique_and_disjoint_per_user(self, result):
        # codes compare within one Dataset only: match users by their ids
        val, test = result.unbiased_val, result.unbiased_test
        val_users, test_users = oracles.users_of(val), oracles.users_of(test)
        for uid in np.unique(val_users):
            val_items = set(oracles.items_of(val)[val_users == uid].tolist())
            test_items = set(oracles.items_of(test)[test_users == uid].tolist())
            assert len(val_items) == CFG.unbiased_val_per_user
            assert len(test_items) == CFG.unbiased_test_per_user
            assert not val_items & test_items

    def test_truth_record_is_complete(self, result):
        keys = {"rho_target", "rho_train_realized", "unbiased_expected_ratio",
                "c", "tau", "pi", "group_of_item", "item_offset",
                "user_factors", "item_factors"}
        assert keys <= set(result.truth)
        assert result.truth["user_factors"].shape == (CFG.n_users, CFG.pref_dim)
        assert result.truth["item_factors"].shape == (CFG.n_items, CFG.pref_dim)

    def test_tau_is_permutation_of_linspace(self, result):
        expected = np.linspace(CFG.temp_low, CFG.temp_high, CFG.n_groups)
        assert np.allclose(np.sort(result.truth["tau"]), expected)

    def test_pi_is_normalized_geometric(self, result):
        pi = result.truth["pi"]
        raw = CFG.group_freq_decay ** np.arange(CFG.n_groups)
        assert np.allclose(pi, raw / raw.sum())
        assert pi[0] == pi.max()


class TestCalibration:
    def test_train_ratios_hit_targets_within_tolerance(self, result):
        rho = CFG.resolved_rho()
        realized = group_stats(result.train).ratio
        assert np.abs(realized - rho).max() <= synth.REALIZED_TOL
        assert np.array_equal(realized, result.truth["rho_train_realized"])

    def test_item_offsets_feed_click_odds(self):
        cfg = SynthConfig(**{**CFG.__dict__, "item_offset_scale": 2.0})
        r = generate(cfg)
        offs = r.truth["item_offset"]
        assert offs.std() > 0.5
        # high-offset items should be clicked more often on unbiased exposure
        ds = r.unbiased_test
        items = ds.indices[:, 1] - cfg.n_users
        hot = offs[items] > np.median(offs)
        assert ds.labels[hot].mean() > ds.labels[~hot].mean()

    def test_zero_offset_scale_gives_zero_offsets(self, result):
        assert np.all(result.truth["item_offset"] == 0.0)

    def test_impossible_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(synth, "REALIZED_TOL", 1e-9)
        with pytest.raises(CalibrationError):
            generate(CFG)

    def test_unbiased_ratio_ordering_decorrelates_from_train(self):
        # strong preference matching makes train and unbiased orderings differ
        cfg = SynthConfig(n_users=300, n_items=120, n_groups=8,
                          exposures_per_user=60, pref_scale=1.5,
                          temp_low=0.2, temp_high=4.0, seed=7)
        r = generate(cfg)
        rho = r.truth["rho_train_realized"]
        s = r.truth["unbiased_expected_ratio"]
        order_rho = np.argsort(rho)
        order_s = np.argsort(s)
        assert not np.array_equal(order_rho, order_s)


class TestReferee:
    @pytest.fixture(autouse=True)
    def world_tolerance(self, monkeypatch):
        monkeypatch.setattr(synth, "REALIZED_TOL", WORLD_TOL)

    def test_equals_one_shot_reference(self, world):
        cfg, reference = world
        assert_same_world(generate(cfg), reference)

    @pytest.mark.parametrize("exposure_rows, holdout_users", [(1, 1), (3, 3), (1, 3)])
    def test_block_sizes_change_no_byte(self, world, monkeypatch, exposure_rows,
                                        holdout_users):
        cfg, reference = world
        monkeypatch.setattr(synth, "EXPOSURE_BLOCK_ROWS", exposure_rows)
        monkeypatch.setattr(synth, "HOLDOUT_BLOCK_USERS", holdout_users)
        assert_same_world(generate(cfg), reference)

    def test_several_blocks_world_runs_each_loop_more_than_once(self):
        cfg = WORLDS["several_blocks"]
        r = generate(cfg)
        bias_lo = cfg.n_users + cfg.n_items
        groups = np.concatenate([ds.indices[:, 2] for ds in (r.train, r.val, r.test)])
        rows_per_group = np.bincount(groups - bias_lo, minlength=cfg.n_groups)
        assert cfg.n_users > synth.HOLDOUT_BLOCK_USERS
        assert rows_per_group.max() > synth.EXPOSURE_BLOCK_ROWS


class TestMemory:
    def test_users_by_items_table_is_refused_before_other_work(self, monkeypatch):
        # 10**14 cells pass any address space, so numpy refuses them at once
        def forbidden(*args, **kwargs):
            raise AssertionError("work done before the world was known to fit")

        class Unseeded:
            normal = forbidden

        monkeypatch.setattr(synth.np, "repeat", forbidden)
        monkeypatch.setattr(synth.np.random, "default_rng", lambda seed: Unseeded())
        with pytest.raises(ConfigError, match="cannot allocate the synthetic world"):
            generate(SynthConfig(n_users=10**7, n_items=10**7))

    def test_splits_hold_ids_as_codes(self, result):
        for ds in result.splits.values():
            blocks_of(ds)
            assert per_row_strings(ds) == []
            assert ds.user_ids.dtype == ds.item_ids.dtype == np.int32
            assert ds.user_vocab is result.train.user_vocab
            assert ds.item_vocab is result.train.item_vocab
        assert len(result.train.user_vocab) == CFG.n_users
        assert len(result.train.item_vocab) == CFG.n_items

    def test_peak_is_bounded_by_the_output(self):
        # the one-shot form peaks at ~3.5x the returned bytes on this world,
        # the row-blocked one at ~2.5x; Dataset validation of the train
        # split sets the peak now
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            r = generate(WORLDS["several_blocks"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.75 * returned_bytes(r)
