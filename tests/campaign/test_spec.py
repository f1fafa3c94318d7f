"""Tests for campaign spec loading and validation."""

import pytest

from repro.campaign.spec import (
    CacheSpec,
    CampaignSpec,
    GridEntry,
    paper_figures_spec,
    validate_rule_ref,
)
from repro.errors import CampaignError

MINI_TOML = """\
[campaign]
name = "mini"
attribution = ["base", "member"]

[[caches]]
size = 4096
block = 32
assoc = 2
policy = "fifo"

[[grid]]
kernel = "1a"
length = 64
rules = ["baseline", "t1"]

[[grid]]
kernel = "3a"
length = 128
rules = ["t3"]
[[grid.caches]]
ppc440 = true
"""


class TestCacheSpec:
    def test_to_config(self):
        cfg = CacheSpec(size=4096, block=64, assoc=2, policy="fifo").to_config()
        assert cfg.size == 4096
        assert cfg.block_size == 64
        assert cfg.ways == 2
        assert cfg.policy == "fifo"

    def test_ppc440_preset(self):
        cfg = CacheSpec(ppc440=True).to_config()
        assert cfg.policy == "round-robin"
        assert cfg.ways == 64
        assert CacheSpec(ppc440=True).label() == "ppc440"

    def test_unknown_keys_rejected(self):
        with pytest.raises(CampaignError, match="unknown cache spec keys"):
            CacheSpec.from_dict({"size": 1024, "blok": 32})

    def test_label_is_stable(self):
        assert CacheSpec().label() == CacheSpec().label()
        assert CacheSpec(size=1024).label() != CacheSpec(size=2048).label()


class TestGridEntry:
    def test_unknown_kernel(self):
        with pytest.raises(CampaignError, match="unknown kernel"):
            GridEntry(kernel="9z")

    def test_bad_rule_reference(self):
        with pytest.raises(CampaignError, match="unknown rule reference"):
            GridEntry(kernel="1a", rules=("t9",))

    def test_empty_rules(self):
        with pytest.raises(CampaignError, match="declares no rules"):
            GridEntry(kernel="1a", rules=())

    def test_nonpositive_length(self):
        with pytest.raises(CampaignError, match="length must be positive"):
            GridEntry(kernel="1a", length=0)

    def test_unknown_entry_keys_rejected(self):
        with pytest.raises(CampaignError, match="unknown grid entry keys"):
            GridEntry.from_dict({"kernel": "1a", "lenght": 8})

    def test_missing_kernel(self):
        with pytest.raises(CampaignError, match="missing required key"):
            GridEntry.from_dict({"length": 8})


class TestRuleRefs:
    def test_paper_and_baseline_names(self):
        for name in ("baseline", "none", "t1", "t2", "t3", "T1"):
            validate_rule_ref(name)

    def test_file_reference(self):
        validate_rule_ref("file:some/rules.txt")

    def test_empty_file_reference(self):
        with pytest.raises(CampaignError, match="empty path"):
            validate_rule_ref("file:")

    def test_file_existence_not_checked_at_spec_time(self):
        # A broken rule file is an execution-time failure, not a spec error.
        GridEntry(kernel="1a", rules=("file:/does/not/exist.rules",))


class TestCampaignSpec:
    def test_from_toml(self):
        spec = CampaignSpec.from_toml(MINI_TOML)
        assert spec.name == "mini"
        assert spec.attribution == ("base", "member")
        assert len(spec.grid) == 2
        assert spec.caches == (CacheSpec(size=4096, block=32, assoc=2, policy="fifo"),)
        assert spec.grid[1].caches == (CacheSpec(ppc440=True),)

    def test_n_points_counts_the_full_grid(self):
        spec = CampaignSpec.from_toml(MINI_TOML)
        # entry 1: 2 rules x 1 default cache x 2 attributions = 4
        # entry 2: 1 rule x 1 override cache x 2 attributions = 2
        assert spec.n_points() == 6

    def test_caches_for_override(self):
        spec = CampaignSpec.from_toml(MINI_TOML)
        assert spec.caches_for(spec.grid[0]) == spec.caches
        assert spec.caches_for(spec.grid[1]) == (CacheSpec(ppc440=True),)

    def test_attribution_string_promoted(self):
        spec = CampaignSpec.from_dict(
            {
                "campaign": {"name": "x", "attribution": "member"},
                "grid": [{"kernel": "1a"}],
            }
        )
        assert spec.attribution == ("member",)

    def test_empty_grid_rejected(self):
        with pytest.raises(CampaignError, match="no grid entries"):
            CampaignSpec.from_dict({"campaign": {"name": "x"}})

    def test_unknown_attribution_rejected(self):
        with pytest.raises(CampaignError, match="unknown attribution"):
            CampaignSpec(
                name="x",
                grid=(GridEntry(kernel="1a"),),
                attribution=("bogus",),
            )

    def test_invalid_toml_wrapped(self):
        with pytest.raises(CampaignError, match="invalid campaign TOML"):
            CampaignSpec.from_toml("[[[")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(MINI_TOML)
        assert CampaignSpec.load(path).name == "mini"

    def test_load_anchors_relative_rule_files(self, tmp_path):
        """``load`` reads a relative ``file:`` reference where ``tdst
        lint`` does, against the spec's directory; ``from_toml`` keeps
        the working directory."""
        text = (
            '[[grid]]\nkernel = "1a"\n'
            f'rules = ["t1", "file:rules/a.rules", "file:{tmp_path}/b.rules"]\n'
        )
        path = tmp_path / "specs" / "spec.toml"
        path.parent.mkdir()
        path.write_text(text)
        (entry,) = CampaignSpec.load(path).grid
        assert entry.rules == (
            "t1",
            f"file:{tmp_path}/specs/rules/a.rules",
            f"file:{tmp_path}/b.rules",
        )
        (entry,) = CampaignSpec.from_toml(text).grid
        assert entry.rules[1] == "file:rules/a.rules"


class TestPaperFiguresSpec:
    def test_covers_the_three_transformations(self):
        spec = paper_figures_spec(length=64)
        rules = {r for e in spec.grid for r in e.rules}
        assert {"t1", "t2", "t3", "baseline"} <= rules
        assert spec.n_points() == 6
