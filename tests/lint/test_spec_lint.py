"""Campaign spec linting: TOML errors, cache geometry, rule refs."""

from pathlib import Path

import pytest

from repro.lint import lint_spec_text

pytestmark = pytest.mark.lint

VALID = """\
[campaign]
name = "ok"

[[caches]]
size = 32768
block = 32
assoc = 1

[[grid]]
kernel = "1a"
length = 64
rules = ["baseline", "t1"]
"""

EXAMPLES = Path(__file__).parent.parent.parent / "examples" / "campaigns"


def test_valid_spec_is_clean():
    report = lint_spec_text(VALID)
    assert not report.diagnostics


def test_broken_toml_is_tdst020():
    report = lint_spec_text("[campaign\nname =")
    assert [d.code for d in report.errors] == ["TDST020"]


def test_unknown_key_is_tdst020():
    report = lint_spec_text(VALID.replace("length = 64", "lenght = 64"))
    assert any(
        d.code == "TDST020" and "lenght" in d.message for d in report.errors
    )


def test_unknown_kernel_is_tdst020():
    report = lint_spec_text(VALID.replace('"1a"', '"9z"'))
    assert [d.code for d in report.errors] == ["TDST020"]


#: Specs whose tables, or values inside a well-shaped table, have the
#: wrong shape; each name starts with the key the error must name.
WRONG_SHAPES = {
    "campaign-scalar": "campaign = 3\n",
    "caches-scalar": "caches = 3\n",
    "grid-scalar": "grid = 3\n",
    "grid-of-scalars": "grid = [3]\n",
    "caches-of-scalars": 'caches = [3]\n[[grid]]\nkernel = "1a"\n',
    "grid.caches-scalar": '[[grid]]\nkernel = "1a"\ncaches = 3\n',
    "length-string": '[[grid]]\nkernel = "1a"\nlength = "x"\n',
    "rules-scalar": '[[grid]]\nkernel = "1a"\nrules = 3\n',
    "attribution-scalar": '[campaign]\nattribution = 3\n[[grid]]\nkernel = "1a"\n',
}


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_wrong_table_shape_is_tdst020(name):
    """Lint never raises: a table or value of the wrong shape is one
    TDST020."""
    report = lint_spec_text(WRONG_SHAPES[name])
    assert report.codes() == ["TDST020"]
    assert f"'{name.split('-')[0]}' must be" in report.errors[0].message


def test_wrong_table_shape_campaign_exits_cleanly(tmp_path, capsys):
    from repro.cli import main

    spec = tmp_path / "bad.toml"
    spec.write_text(WRONG_SHAPES["grid-of-scalars"])
    argv = ["campaign", str(spec), "--no-lint", "--dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "error: 'grid' must be an array of tables" in capsys.readouterr().out


def test_bad_cache_geometry_is_tdst023():
    report = lint_spec_text(VALID.replace("size = 32768", "size = 1000"))
    assert any(d.code == "TDST023" for d in report.errors)


def test_duplicate_grid_point_is_tdst022():
    doubled = VALID + (
        "\n[[grid]]\nkernel = \"1a\"\nlength = 64\nrules = [\"t1\"]\n"
    )
    report = lint_spec_text(doubled)
    dups = [d for d in report if d.code == "TDST022"]
    assert len(dups) == 1 and "t1" in dups[0].message
    assert report.ok  # a warning, not an error


class TestFileRefs:
    def spec_with_ref(self, ref):
        return VALID.replace(
            'rules = ["baseline", "t1"]', f'rules = ["file:{ref}"]'
        )

    def test_missing_rule_file_is_tdst021(self, tmp_path):
        spec = tmp_path / "c.toml"
        spec.write_text(self.spec_with_ref("nowhere.rules"))
        report = lint_spec_text(spec.read_text(), path=str(spec))
        assert any(
            d.code == "TDST021" and "nowhere.rules" in d.message
            for d in report.errors
        )

    def test_referenced_rule_file_recursively_linted(self, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("in:\nint lA[8];\n")  # no out: section
        spec = tmp_path / "c.toml"
        spec.write_text(self.spec_with_ref("bad.rules"))
        report = lint_spec_text(spec.read_text(), path=str(spec))
        assert any(d.code == "TDST001" for d in report.errors)
        assert str(bad) in report.files

    def test_clean_rule_ref_accepted(self, tmp_path):
        good = tmp_path / "good.rules"
        good.write_text("displace:\nlArrayA + 4096\n")
        spec = tmp_path / "c.toml"
        spec.write_text(self.spec_with_ref("good.rules"))
        report = lint_spec_text(spec.read_text(), path=str(spec))
        assert not report.errors

    def test_relative_ref_resolved_against_base_dir(self, tmp_path):
        (tmp_path / "sub").mkdir()
        good = tmp_path / "sub" / "good.rules"
        good.write_text("displace:\nlArrayA + 64\n")
        report = lint_spec_text(
            self.spec_with_ref("sub/good.rules"), base_dir=tmp_path
        )
        assert not report.errors


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.toml")), ids=lambda p: p.name
)
def test_shipped_example_specs_lint_clean(path):
    report = lint_spec_text(path.read_text(), path=str(path))
    assert not report.errors, [d.render() for d in report.errors]
