import re
from dataclasses import MISSING, fields

import numpy as np
import pytest

import lslkit.config as config_module
from lslkit.cli import main
from lslkit.config import ExperimentConfig, Inclusion, bundled_config_path, parse_config
from lslkit.errors import ConfigurationError
from reference import assert_support_margin


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_empty_config_gets_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        assert cfg.nx == 100 and cfg.ny == 50
        assert cfg.source_count == 9
        assert cfg.iterations == 1
        assert cfg.inclusions == ()
        assert np.all(cfg.true_potential().values == 0.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            parse_config(tmp_path / "nope.cfg")

    def test_unknown_section_and_key(self, tmp_path):
        with pytest.raises(ConfigurationError, match=r"\[bogus\]"):
            parse_config(write(tmp_path, "[bogus]\nx = 1\n"))
        with pytest.raises(ConfigurationError, match="solver.warp"):
            parse_config(write(tmp_path, "[solver]\nwarp = 9\n"))
        for key in ("origin_x", "origin_y"):  # translating the domain changes no image
            with pytest.raises(ConfigurationError, match=f"unknown config key domain.{key}"):
                parse_config(write(tmp_path, f"[domain]\n{key} = 0.0\n"))

    @pytest.mark.parametrize("raw, value", [("yes", True), ("0", False)])
    def test_bool_spellings(self, tmp_path, raw, value):
        cfg = parse_config(write(tmp_path, f"[inversion]\npositivity = {raw}\n"))
        assert cfg.positivity is value

    @pytest.mark.parametrize("text, key", [
        ("[inversion]\npositivity = maybe\n", "inversion.positivity"),
        ("n = 40\n", "no section headers"),
    ], ids=["bool", "no_section"])
    def test_unreadable_value_exits_2(self, tmp_path, capsys, text, key):
        assert main(["simulate", "--config", str(write(tmp_path, text))]) == 2
        assert key in capsys.readouterr().err

    def test_type_errors_name_the_key(self, tmp_path):
        with pytest.raises(ConfigurationError, match="time.n"):
            parse_config(write(tmp_path, "[time]\nn = fast\n"))

    def test_cfl_violation_names_substeps(self, tmp_path):
        text = "[time]\ntau = 3.0\n[solver]\nsubsteps = 1\n"
        with pytest.raises(ConfigurationError, match="solver.substeps"):
            parse_config(write(tmp_path, text))

    def test_inclusion_wiring(self, tmp_path):
        text = (
            "[model]\ninclusions = bump\n"
            "[inclusion bump]\nshape = ellipse\nx = 50\ny = 25\n"
            "width = 10\nheight = 6\namplitude = 0.05\n"
        )
        cfg = parse_config(write(tmp_path, text))
        assert cfg.inclusions[0].name == "bump"
        q = cfg.true_potential()
        assert q.values.max() == pytest.approx(0.05)
        assert_support_margin(q, cfg.margin)

    def test_unreferenced_inclusion_rejected(self, tmp_path):
        text = "[inclusion stray]\nshape = rectangle\nx = 50\ny = 25\nwidth = 4\nheight = 4\namplitude = 0.1\n"
        with pytest.raises(ConfigurationError, match="stray"):
            parse_config(write(tmp_path, text))

    def test_nameless_inclusion_section(self, tmp_path):
        text = "[model]\ninclusions = blob\n[inclusion ]\nshape = ellipse\n"
        with pytest.raises(ConfigurationError, match=re.escape("[inclusion ]")):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("change, message", [
        ({"depth": "3"}, "unknown config key inclusion blob.depth"),
        ({"amplitude": None}, "inclusion blob: missing key amplitude"),
    ], ids=["unknown_key", "missing_key"])
    def test_inclusion_keys(self, tmp_path, change, message):
        keys = {"shape": "ellipse", "x": "50", "y": "25", "width": "10", "height": "6",
                "amplitude": "0.05", **change}
        text = "[model]\ninclusions = blob\n[inclusion blob]\n" + "".join(
            f"{k} = {v}\n" for k, v in keys.items() if v is not None)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_config(write(tmp_path, text))

    def test_missing_inclusion_section(self, tmp_path):
        with pytest.raises(ConfigurationError, match="ghost"):
            parse_config(write(tmp_path, "[model]\ninclusions = ghost\n"))

    @pytest.mark.parametrize(
        "model, sections",
        [("a", ["[inclusion a]", "[inclusion  a]"]), ("a a", ["[inclusion a]"])],
        ids=["two_sections", "listed_twice"],
    )
    def test_repeated_inclusion_name(self, tmp_path, model, sections):
        # an ellipse then a rectangle both named a: neither may silently win
        shapes = ["ellipse", "rectangle"]
        text = f"[model]\ninclusions = {model}\n" + "".join(
            f"{section}\nshape = {shape}\nx = 50\ny = 25\nwidth = 10\nheight = 6\n"
            "amplitude = 0.05\n"
            for section, shape in zip(sections, shapes)
        )
        with pytest.raises(ConfigurationError, match=r"\ba\b"):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\nn = 40\n", "[DEFAULT]\nn = 40\n[time]\ntau = 3.0\n",
         "[DEFAULT]\nn = 40\n[time]\ntau = 3.0\n[domain]\nwidth = 100\n"],
        ids=["alone", "beside_time", "beside_time_and_domain"],
    )
    def test_default_section_keys_rejected(self, tmp_path, text):
        # configparser merges [DEFAULT] into every section: ignored alone,
        # time.n beside [time], an unknown domain.n beside [domain]
        with pytest.raises(ConfigurationError, match=re.escape("[DEFAULT]")):
            parse_config(write(tmp_path, text))

    def test_margin_violation(self, tmp_path):
        text = (
            "[model]\nmargin = 4.0\ninclusions = edge\n"
            "[inclusion edge]\nshape = rectangle\nx = 2\ny = 25\n"
            "width = 6\nheight = 6\namplitude = 0.1\n"
        )
        with pytest.raises(ConfigurationError, match="edge"):
            parse_config(write(tmp_path, text))

    def test_source_depth_bound(self, tmp_path):
        text = "[sources]\nsigma = 2.0\ndepth = 7.0\n"
        with pytest.raises(ConfigurationError, match="sources.depth"):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize(
        "text, key",
        [("count = 1", "sources.count"), ("count = 0", "sources.count"),
         ("amplitude = 0.0", "sources.amplitude")],
        ids=["one_source", "no_source", "zero_amplitude"],
    )
    def test_source_count_and_amplitude(self, tmp_path, text, key):
        # one source's diagonal record is already full; sources.amplitude is no key
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            parse_config(write(tmp_path, f"[sources]\n{text}\n"))
        assert parse_config(write(tmp_path, "[sources]\ncount = 2\n")).source_count == 2

    def test_bad_ratio(self, tmp_path):
        text = "[simulation]\nnx = 101\nny = 50\n"
        with pytest.raises(ConfigurationError, match="inversion_ratio"):
            parse_config(write(tmp_path, text))

    def test_ratio_leaves_2x2_inversion_cells(self, tmp_path):
        # 8x4 cells at ratio 4 nest, but leave a 2x1 inversion grid
        text = "[simulation]\nnx = 8\nny = 4\ninversion_ratio = {}\n"
        assert parse_config(write(tmp_path, text.format(2))).inv_grid().ny == 2
        with pytest.raises(ConfigurationError) as refused:
            parse_config(write(tmp_path, text.format(4)))
        assert str(refused.value) == (
            "simulation.inversion_ratio 4 must leave at least 2x2 inversion cells of 8x4"
        )

    @pytest.mark.parametrize("key, value", [
        ("first_x", "-0.5"), ("last_x", "100.5"), ("first_x", "101"), ("last_x", "-1"),
    ])
    def test_sources_inside_the_domain(self, tmp_path, key, value):
        # the domain is 100 wide; its walls hold the outermost sources
        text = "[sources]\nfirst_x = 0\nlast_x = 100\n"
        assert list(parse_config(write(tmp_path, text)).source_xs()[[0, -1]]) == [0.0, 100.0]
        text = f"[sources]\n{key} = {value}\n"
        message = f"sources.{key} {float(value)} must be in [0, domain.width] = [0, 100.0]"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_config(write(tmp_path, text))

    def test_negative_noise_seed(self, tmp_path):
        # numpy's generator rejects a negative seed only once noise is drawn
        text = "[noise]\nlevel = 0.05\nseed = -5\n"
        with pytest.raises(ConfigurationError, match="noise.seed"):
            parse_config(write(tmp_path, text))

    def test_iterations_fit_the_halving_schedule(self, tmp_path):
        # n = 12 halves to 6, 3 and 2 samples; a fourth round would leave 1
        cfg = parse_config(write(tmp_path, "[time]\nn = 12\n[inversion]\niterations = 3\n"))
        assert cfg.iterations == 3
        text = "[time]\nn = 12\n[inversion]\niterations = 4\n"
        with pytest.raises(ConfigurationError, match=r"inversion\.iterations.*time\.n"):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize(
        "section, key, value",
        [("domain", "width", "nan"), ("domain", "width", "inf"), ("noise", "level", "nan"),
         ("time", "tau", "inf"), ("time", "tau", "nan"), ("sources", "sigma", "inf"),
         ("sources", "first_x", "-inf"), ("inclusion blob", "amplitude", "nan")],
    )
    def test_non_finite_floats_name_the_key(self, tmp_path, section, key, value):
        blob = {"shape": "ellipse", "x": "50", "y": "25", "width": "10", "height": "6",
                "amplitude": "0.05"}
        text = "[model]\ninclusions = blob\n"
        if section == "inclusion blob":
            blob[key] = value
        else:
            text += f"[{section}]\n{key} = {value}\n"
        text += "[inclusion blob]\n" + "".join(f"{k} = {v}\n" for k, v in blob.items())
        with pytest.raises(ConfigurationError, match=re.escape(f"{section}.{key}")):
            parse_config(write(tmp_path, text))


#: every single-key rule as (key, rejected value, accepted boundary value,
#: other settings the accepted value needs); written out by hand, so it
#: pins the accepted set independently of how config.py states its rules
SINGLE_KEY_RULES = [
    ("domain.width", "0", "200", {}),
    ("domain.height", "0", "100", {}),
    ("simulation.nx", "1", "2", {"simulation.inversion_ratio": "1"}),
    ("simulation.ny", "1", "2", {"simulation.inversion_ratio": "1"}),
    ("simulation.inversion_ratio", "0", "1", {}),
    ("sources.count", "1", "2", {}),
    ("sources.sigma", "0", "1e-9", {"sources.depth": "0"}),
    ("time.tau", "0", "1e-3", {}),
    ("time.n", "1", "2", {"inversion.iterations": "0"}),
    ("solver.substeps", "0", "1", {"time.tau": "0.5"}),
    ("inversion.tsvd", "1", "1e-4", {}),
    ("inversion.tsvd", "9.99e-5", "0.999", {}),
    ("inversion.iterations", "-1", "0", {}),
    ("noise.level", "-1e-9", "0", {}),
    ("noise.seed", "-1", "0", {}),
    ("model.margin", "-1e-9", "0", {}),
    ("inclusion blob.shape", "disk", "ellipse", {}),
    ("inclusion blob.width", "0", "1e-9", {}),
    ("inclusion blob.height", "0", "1e-9", {}),
    ("inclusion blob.amplitude", "-1e-9", "0", {}),
]


def config_text(settings):
    """INI text of {"section.key": value}; one inclusion, blob, is always present."""
    blob = {"shape": "rectangle", "x": "50", "y": "25", "width": "10", "height": "6",
            "amplitude": "0.05"}
    sections = {"model": {"inclusions": "blob"}, "inclusion blob": blob}
    for path, value in settings.items():
        section, key = path.rsplit(".", 1)
        sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()
    )


@pytest.mark.parametrize(
    "key, rejected, accepted, needs",
    SINGLE_KEY_RULES,
    ids=[f"{key}={rejected}" for key, rejected, *_ in SINGLE_KEY_RULES],
)
def test_single_key_rule_boundary(tmp_path, key, rejected, accepted, needs):
    # the rejected value names its key and exits 2 (never a ZeroDivisionError
    # or a later numpy failure); the boundary value on the other side parses
    section, name = key.rsplit(".", 1)
    with pytest.raises(ConfigurationError) as caught:
        parse_config(write(tmp_path, config_text({**needs, key: rejected})))
    assert re.search(rf"{re.escape(section)}\W(.*\W)?{re.escape(name)}\b", str(caught.value))
    parse_config(write(tmp_path, config_text({**needs, key: accepted})))


def documented_schema():
    """{key path: documented default} of the config module docstring's listing."""
    listing = config_module.__doc__.split("\n\n    [", 1)[1].split("\n\n", 1)[0]
    documented, section = {}, None
    for line in ("    [" + listing).splitlines():
        header = re.match(r"\s*\[([^\]]+)\]", line)
        if header:
            section = header.group(1)
        for key, default in re.findall(r"(\w+) \(([^)]*)\)", line):
            documented[f"{section}.{key}"] = default
    return documented


def test_docstring_lists_every_key_with_its_default():
    # README points users at this listing; it must match the fields exactly
    table = {f.metadata["key"]: f.default for f in fields(ExperimentConfig)}
    table.update((f"inclusion X.{f.name}", f.default) for f in fields(Inclusion)[1:])
    spelled = {MISSING: "required", (): "empty"}
    documented = documented_schema()
    assert set(documented) == set(table)
    for key, default in table.items():
        if default is not None:  # first_x/last_x document the derived position
            assert documented[key] == spelled.get(default, str(default).lower()), key


class TestDerivedObjects:
    def test_grids_nest(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        sim = cfg.sim_grid()
        inv = cfg.inv_grid()
        assert sim.nx == cfg.inversion_ratio * inv.nx
        assert (sim.nx * sim.hx, sim.ny * sim.hy) == (inv.nx * inv.hx, inv.ny * inv.hy)

    def test_sources_on_acquisition_line(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        src = cfg.sources()
        assert src.count == cfg.source_count
        assert np.all(src.centers[:, 1] == cfg.acquisition_y())
        assert cfg.acquisition_y() == pytest.approx(cfg.height - cfg.source_depth)

    def test_regions_cover_inclusions(self, tmp_path):
        text = (
            "[model]\ninclusions = bump\n"
            "[inclusion bump]\nshape = rectangle\nx = 50\ny = 25\n"
            "width = 10\nheight = 6\namplitude = 0.05\n"
        )
        cfg = parse_config(write(tmp_path, text))
        (region,) = cfg.regions()
        assert region.name == "bump"
        assert region.x0 < 45.0 and region.x1 > 55.0
        assert region.y0 < 22.0 and region.y1 > 28.0

    def test_rotated_inclusion(self, tmp_path):
        text = (
            "[model]\ninclusions = slab\n"
            "[inclusion slab]\nshape = rectangle\nx = 50\ny = 25\n"
            "width = 20\nheight = 4\namplitude = 0.1\nangle = 90\n"
        )
        cfg = parse_config(write(tmp_path, text))
        q = cfg.true_potential()
        x, y = cfg.sim_grid().meshgrid()
        # rotated by 90 degrees: tall and thin
        assert q.values[(np.abs(x - 50) <= 1.5) & (np.abs(y - 25) <= 9.5)].min() > 0


class TestBundledConfigs:
    def test_two_targets_desk(self):
        cfg = parse_config(bundled_config_path("two_targets"))
        assert cfg.source_count == 9
        assert (cfg.nx, cfg.ny) == (100, 50)
        assert len(cfg.inclusions) == 2

    def test_two_targets_full_scale(self):
        cfg = parse_config(bundled_config_path("two_targets_full"))
        assert cfg.source_count == 27
        assert (cfg.nx, cfg.ny) == (400, 200)

    def test_box_and_three_objects(self):
        box = parse_config(bundled_config_path("box"))
        assert box.noise_level == pytest.approx(0.05)
        three = parse_config(bundled_config_path("three_objects"))
        assert three.iterations == 2
        assert len(three.inclusions) == 3

    def test_unknown_bundle(self):
        with pytest.raises(ConfigurationError):
            bundled_config_path("missing_experiment")

    def test_box_model_is_hollow(self):
        cfg = parse_config(bundled_config_path("box"))
        q = cfg.true_potential()
        x, y = cfg.sim_grid().meshgrid()
        inside = (np.abs(x - 50) <= 6) & (np.abs(y - 24) <= 4)
        on_wall = (np.abs(x - 50) <= 12) & (np.abs(y - 32) <= 1)
        assert np.all(q.values[inside] == 0.0)
        assert np.all(q.values[on_wall] > 0.0)
