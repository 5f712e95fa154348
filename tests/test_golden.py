"""Golden output hashes: a config and seed must keep producing the same bytes.

Each case runs ``sqzlab run`` and compares the sha256 of the data file and
of ``manifest.json`` with a pinned value.  The seven default cases use the
seeds and the ``photon-record`` power of the benchmark's reference configs
(``bench/workloads.py``, first ``cli-cold`` round of seed 0), so their CSV
hashes equal the ``output_sha256`` that ``bench/run.py`` reports.  The other
cases exercise the broadcasting model paths away from the defaults.

The sampled cases (``photon-record``, ``bhd-psd`` and ``snr-equivalence``)
draw from numpy's SFC64 generator, seeded through ``SeedSequence``
(``detection._rng``), so their hashes pin that stream for each seed too.
``photon-record`` draws one stream from its seed.  ``bhd-psd`` and
``snr-equivalence`` draw their white series in blocks of 2**16 samples:
block i is ``standard_normal`` on ``SeedSequence(seed, spawn_key=(i,))``,
child i of the seed, so their hashes pin that block layout as well.

Bit identity holds for a fixed numpy build; a numpy upgrade that changes a
ufunc's last bit shows up here first.  sqzlab makes no BLAS call, so the
bytes do not depend on the kernels that numpy's OpenBLAS picks for the CPU;
the last test reruns every case under other kernels to check it.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sqzlab.cli import main
from sqzlab.decoherence import PhaseNoise, SqueezeMeasurement, fit_loss_phase, forward_model
from sqzlab.gaussian import SqueezeSetting, coherent, mean_photon_number, rotate, squeeze

CASES = {
    "opo-spectrum": ("opo-spectrum", {}, 1116347426),
    "decohere": ("decohere", {}, 2046968324),
    "fit-loss": ("fit-loss", {}, 3439180443),
    "photon-record": (
        "photon-record",
        {"power_w": 1.6379967141492295e-12},
        4211286945,
    ),
    "bhd-psd": ("bhd-psd", {}, 532125690),
    "snr-equivalence": ("snr-equivalence", {}, 92928119),
    "noise-budget": ("noise-budget", {}, 948454521),
    "photon-record-1000-photons": (
        "photon-record",
        {"power_w": 1.8669603920572637e-12},
        11,
    ),
    "opo-spectrum-pump-linear": (
        "opo-spectrum",
        {"pump_ratio": 0.6, "log_spacing": False, "frequency_points": 50},
        None,
    ),
    "decohere-jitter-sideband": (
        "decohere",
        {
            "phase_noise_deg": 2.5,
            "frequency_hz": 4.0e5,
            "added_losses": [0.0, 0.2, 0.45, 1.0],
        },
        None,
    ),
    "fit-loss-fixed-jitter": ("fit-loss", {"fixed_phase_noise_deg": 0.5}, None),
    "noise-budget-tilted": (
        "noise-budget",
        {
            "squeeze_db": 6.0,
            "squeeze_angle_deg": 73.0,
            "injection_loss": 0.1,
            "detection_efficiency": 0.9,
        },
        None,
    ),
    "noise-budget-filter-cavity": (
        "noise-budget",
        {
            "squeeze_db": 6.0,
            "filter_cavity_half_linewidth_hz": 30.0,
            "filter_cavity_detuning_hz": 30.0,
        },
        None,
    ),
    "noise-budget-matched": (
        "noise-budget",
        {"squeeze_db": 6.0, "matched_rotation": True},
        None,
    ),
    # A leak of LO noise through the splitter, and a tail of 97 samples after
    # the last 128-sample PSD segment that only the series variance reads.
    "bhd-psd-lo-leak-tail": (
        "bhd-psd",
        {"lo_noise_variance": 4.0, "balance_asymmetry": 0.25, "n_samples": 300001},
        11,
    ),
    # One PSD segment of 2 MiB, longer than a 512 KiB stream block.
    "bhd-psd-long-segment": (
        "bhd-psd",
        {"resolution_bandwidth_hz": 1.0, "n_samples": 524288},
        12,
    ),
    "snr-equivalence-tail": ("snr-equivalence", {"n_samples": 300001}, 13),
}

# (case, output format) -> (sha256 of the data file, sha256 of manifest.json)
GOLDEN = {
    ("opo-spectrum", "csv"): (
        "c64ac32e10ea0bec444d38acffe19266018ecf828276fecd57358d0bb15a3a45",
        "9bd9457a8d64a2fb48cd5a1708920d14c431fe5e21af397ec48efb1ca8d0bd68",
    ),
    ("opo-spectrum", "json"): (
        "f2152d23955f688ffe43463c7ec8fd9ef5a022f33f2a303b395a9a855ea6c298",
        "ffb37253e7802384eb8d037f7968db33d010be627a7a0fef8da5b943a9d3c751",
    ),
    ("decohere", "csv"): (
        "540cc9873c9f0c0d9b25349571421cca134b7ad7a7401cc714784a3aaa3ee920",
        "c8e02d97b6d18377237677075b07dd87f1a9fde730dc376720d716389c5c5749",
    ),
    ("decohere", "json"): (
        "d3fcf6e8e50ae765c76f05ecc8e346f115efc86c09b0ff36055265d11a5b965a",
        "0c34bb2f2533cb4bf176ff5f3c1f8bb0c01fd23dbaeeccc2ebfe073e122bff64",
    ),
    ("fit-loss", "csv"): (
        "cfcbf1d2457d8cb61c8ab737f53026590726f265edb36609ec1abb9964cde083",
        "9a95ce4c24f0ee529e4e8c8304f9932af7513ee8767bac09b55654c07a9c228a",
    ),
    ("fit-loss", "json"): (
        "0f96115e756fc5e87db88ad20651ad438ba8ff536d893a48078079f327ef1875",
        "d10957640a03bc95e2781dcd85eab76351739aa1393f3848f060d25f71fe4f3a",
    ),
    ("photon-record", "csv"): (
        "87d92730869dff9c9f6c4605979b97ae28c441747df85d4e797492b79dbdd68e",
        "6c34282a59a551dba0a041a8026b202c1e202b4c0e44312ae6b5f2f44343ca85",
    ),
    ("photon-record", "json"): (
        "8e4630c9f1d84e4588a47d6edcf8d70a24815aef2dc76471f1dbb40b4f3194de",
        "2ef89c1b36f09540551fb4c87bbf86f39bf25613addb7343aa4594301e27f3d4",
    ),
    ("bhd-psd", "csv"): (
        "c53dcfa0f617115248b81542f6302a1275df0165004225fff5bd88958778a800",
        "6ab05d7483cea42854d66c6448a8105df85e0299ce1c2c8477bd8dfb69d3f632",
    ),
    ("bhd-psd", "json"): (
        "a2b4212b4db0208b52ced4dbd9584fb1d2a021219c20d6073a7165a521491e78",
        "e094a56acc00dcc967d477c8ede14a5acafacdbf02028e3dc50e3fa69a7fde68",
    ),
    ("snr-equivalence", "csv"): (
        "e5d079e588dbf19b3cf7d6175aa0fdb38e4f2b3d42ef16f8aaa8189df68a94ec",
        "e2aa727d0319eba4d8e48e153ed952ad55316ee47a49d315bda7894b94e5a0f0",
    ),
    ("snr-equivalence", "json"): (
        "76a9da8c23ae181d3ed033da9cb4517026e85adba617d9eff759a577b44ed321",
        "b94b5fb6339c46372baf02a222136dd2f2b8496b101bdf357a04a21cf1b600cf",
    ),
    ("noise-budget", "csv"): (
        "990d8996161e1d16dcf0096781ff352eb63b9977946f004779d468cb9ff57cad",
        "b73fd5928ff531da68fb7be7baea0f07fcc1193b047764ea825e48c966725a58",
    ),
    ("noise-budget", "json"): (
        "8759eed50d0b6105937790cbefa69442f55b273412f207b19276d8a27b69e463",
        "776134b539cadadef99deeb940a49159513ce4d94c596bab5bc20e3af3a036f6",
    ),
    ("photon-record-1000-photons", "csv"): (
        "f4648b8d816f4ee35fbcc21138469df3c4294c4e1527cff7235fdf3cd6eb8e02",
        "fc125b6f0d7378477637e8cc2ab2200a42f865772cac2cd9643acd9a8f37cb3d",
    ),
    ("photon-record-1000-photons", "json"): (
        "a3e823666b3765ca2150fbbfd8feafbaa97c038969671b4f3947e1b3d370309a",
        "bf9ec67c84927b36c2c79e2503250ad7961ab035f7de003a16a5333f4b20333e",
    ),
    ("opo-spectrum-pump-linear", "csv"): (
        "c3db330f0aa9aeee9ae7ba25bded4a5369a5fd81f043d35b806bd5e4faa8a535",
        "9dedd9837cd92e0e9b5b464eb87874ce79c86f16bfb0605c468a1ff8189805d3",
    ),
    ("opo-spectrum-pump-linear", "json"): (
        "10ddbc2642ff34703d4d58d7f5a34af82a032fed76b1995f4566f6c46911aed2",
        "c750e4ae0916108d9efd907527a19a31fa18f89433b754fe6051a6ac6c127255",
    ),
    ("decohere-jitter-sideband", "csv"): (
        "7f31ed8e2d598b87559961b152e037e985ea4a97f9175b640af56d9ccfcd0c9e",
        "1414e5e504a92005048bc5bae42f942bbc9d08ca661ac5b177235c69a4cc2e7a",
    ),
    ("decohere-jitter-sideband", "json"): (
        "ba871bd3d19fbd6768979ec4b19d6f6a2aa2d2157226aad476833641f1d750f5",
        "f635457f8f0279bf2509d2ee59325f6419830e09b90cbc941e66b0f8cacd49c4",
    ),
    ("fit-loss-fixed-jitter", "csv"): (
        "361f2705a2f806cfa4ee74435dfd6ccb6f7b2e3f3f2238c7a95244aec8a0c9fd",
        "f9468038227763b9940e25468dbb7acb64751ee05ea20d8ef0a60754fddafdf8",
    ),
    ("fit-loss-fixed-jitter", "json"): (
        "e5261fb40ffd536a67cc91d697f0165999dc8687702b25491ec476be5eef3459",
        "5b58adb59e2b40d969386107dc2b058f163855eb9d816a1fece6a7fc2da70d08",
    ),
    ("noise-budget-tilted", "csv"): (
        "964e035ec91405f2d8a4915c179d7b72e4873bea14adc27eca5827409a440c4c",
        "d5e6af3d23f88e8aab2cc32273522faaa6c2f63cf7ecb01edff1e6960fee9530",
    ),
    ("noise-budget-tilted", "json"): (
        "eaddeb199b0796173d1711366eb009379a7359bd276c30194da4e123aedd12b6",
        "0d0ecc2eff063c28f49ff91ce3239c75f46edbdfeab61bb9b4dd0d73c3b49fd2",
    ),
    ("noise-budget-filter-cavity", "csv"): (
        "fbee267c71dc10e1ad1d4c37350563566ad1eb5734fad641ac84d5c8bb3da9af",
        "0ec59a91af2bd880eadcdc5a00c4a655fc71a2f43f6f06ce45c843306ec19e1c",
    ),
    ("noise-budget-filter-cavity", "json"): (
        "7dcbf90cf1bd540dc0a0e93f339bb2fa619071f400801a9ced54b9bdfa758096",
        "a98211589dd475ca999b2ecfe2917e02ca46775bf5fa6e7d270de2e7ab5e8830",
    ),
    ("noise-budget-matched", "csv"): (
        "860ee3b7e7716cb0b4cf13d90d1c7bfc14dcd7d0cf437f97d28da731231c3e0f",
        "d01631b42c800c9e1b355cf29948083fa28889125f24d5430ec444108bb76bb0",
    ),
    ("noise-budget-matched", "json"): (
        "5219d3556a7fde5bcf9448cee73515a88ba51581e444e0dc1a72591562bef069",
        "ce0b933a6d339e18d28bc0d2a423247f864d78adc4459633c432347955c78d2e",
    ),
    ("bhd-psd-lo-leak-tail", "csv"): (
        "d36f606bf7d90d01d656ced62a89851de4edeb3e8d46e518b67de1bb38867cb1",
        "7549ed86121a84f573f505edc209db75d899c23a126f757a04a1a2974c1fa51e",
    ),
    ("bhd-psd-lo-leak-tail", "json"): (
        "7d2bf58fb0beedc6a3879d76fd7eb7006f475a887b2d214452ee8682c0a87f64",
        "82137aea75e9d32384b05f09fb547adccec34fffb4788c20c1dde7295e0478d7",
    ),
    ("bhd-psd-long-segment", "csv"): (
        "56e427e669c8201ef0c8f3864a83a4d353fea98bae0b756527282faa33f3d8fb",
        "26ce6fac36e73ab70f801c29da21b97abfb954821404b9d70bf244ac0366dc69",
    ),
    ("bhd-psd-long-segment", "json"): (
        "79e203a38de5720bacc861016f45ea4d903a157340e000ab8a9eea38907f8344",
        "52b78079b9f302f9ba37fad5a9e830b8bdc4dfa60479f6c50bbdd1e250b8582a",
    ),
    ("snr-equivalence-tail", "csv"): (
        "7740297081b54b88c329e26c7b006c611cc8d61d2fec44c8d68c4838b374ce84",
        "24e1cca1f9230df0dce5bcf4dc289ecdbe37b3ddf32a64911b3d0a8510c8fae5",
    ),
    ("snr-equivalence-tail", "json"): (
        "17d9235eb0ea3642e62c725d0e5e6045d52bafdef91b9e0b54ba58d813b67ecd",
        "5c1feeec3056f18a24ad62403f55753c51ff627dc48bc1605b7af17a6f4bc0ea",
    ),
}


def run_args(directory, case: str, output_format: str) -> list[str]:
    """``sqzlab`` arguments that write ``case`` to ``directory / "out"``."""
    experiment, parameters, seed = CASES[case]
    config = {
        "experiment": experiment,
        "parameters": parameters,
        "output_format": output_format,
    }
    if seed is not None:
        config["seed"] = seed
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return ["run", "--config", str(path), "--out", str(directory / "out")]


def output_hashes(directory, case: str, output_format: str) -> tuple[str, str]:
    experiment = CASES[case][0]
    return tuple(
        hashlib.sha256((directory / "out" / name).read_bytes()).hexdigest()
        for name in (f"{experiment}.{output_format}", "manifest.json")
    )


def _not_json(token):
    raise AssertionError(f"{token} is not JSON")


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_output_bytes_are_pinned(tmp_path, case, output_format):
    assert main(run_args(tmp_path, case, output_format)) == 0
    assert output_hashes(tmp_path, case, output_format) == GOLDEN[case, output_format]
    # Every JSON file a golden run writes, its manifest included, is strict
    # JSON: no NaN, Infinity or -Infinity token.
    for path in (tmp_path / "out").glob("*.json"):
        json.loads(path.read_text(), parse_constant=_not_json)


def test_default_bytes_on_the_cold_path(tmp_path, fresh_python):
    # pytest has imported numpy before sqzlab.cli, so the runs above keep
    # OpenBLAS's thread pool.  A cold ``sqzlab run`` is the first to import
    # numpy and starts it single-threaded.  One fresh interpreter runs every
    # default case that way, on the package outside src/, bundled data
    # included.
    runs = [
        (case, output_format, tmp_path / f"{case}-{output_format}")
        for case, (experiment, _, _) in CASES.items()
        if case == experiment
        for output_format in ("csv", "json")
    ]
    argvs = []
    for case, output_format, directory in runs:
        directory.mkdir()
        argvs.append(run_args(directory, case, output_format))
    script = (
        "import sys\n"
        "if 'numpy' in sys.modules:\n"
        "    sys.exit('numpy imported before sqzlab.cli')\n"
        "from sqzlab.cli import main\n"
        f"for args in {argvs!r}:\n"
        "    if main(args) != 0:\n"
        "        sys.exit(f'run failed: {args}')\n"
    )
    fresh_python("-c", script)
    assert len(runs) == 14
    for case, output_format, directory in runs:
        hashes = output_hashes(directory, case, output_format)
        assert hashes == GOLDEN[case, output_format], (case, output_format)


@pytest.mark.parametrize("case", list(CASES))
def test_csv_and_json_hold_the_same_rows(tmp_path, case):
    # The JSON parses strictly (``json.tool`` takes Infinity), and its rows
    # equal the CSV's data rows.  Those are read as one JSON array, so an
    # integer table reads as ints and a flag as a boolean, and compared as
    # JSON text, where an int and a float of one value differ.
    text = {}
    for output_format in ("csv", "json"):
        directory = tmp_path / output_format
        directory.mkdir()
        assert main(run_args(directory, case, output_format)) == 0
        name = f"{CASES[case][0]}.{output_format}"
        text[output_format] = (directory / "out" / name).read_text()
    rows = json.loads(text["json"], parse_constant=_not_json)["rows"]
    lines = [line for line in text["csv"].splitlines() if not line.startswith("#")]
    cells = json.loads("[[" + "],[".join(lines[1:]) + "]]", parse_constant=_not_json)
    assert rows and json.dumps(rows) == json.dumps(cells)


# OpenBLAS kernel sets that x86-64 CPUs without AVX-512 run; numpy's bundled
# OpenBLAS takes one of them from OPENBLAS_CORETYPE at load.
OPENBLAS_CORES = ("Haswell", "Sandybridge", "Nehalem", "Prescott")


def openblas_core() -> str | None:
    """Kernel set of the OpenBLAS that numpy loaded in this process, if any."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def library_digest() -> str:
    """sha256 of seeded state means, photon numbers and one fit, as float64 bytes."""
    values = []
    for alpha_x, alpha_y, r, theta, angle in np.random.default_rng(23).uniform(
        -5.0, 5.0, (2000, 5)
    ):
        state = coherent(alpha_x, alpha_y)
        for moved in (squeeze(state, SqueezeSetting(abs(r), theta)), rotate(state, angle)):
            values += [*moved.mean, mean_photon_number(moved)]
        values.append(mean_photon_number(state))
    losses = np.linspace(0.0, 0.5, 6)
    readings = forward_model(63.0, 0.086, losses, PhaseNoise.from_degrees(1.0))
    fit = fit_loss_phase([SqueezeMeasurement(*m) for m in zip(losses, *readings)], 63.0)
    values += [fit.intrinsic_loss, fit.phase_noise.sigma, fit.residual]
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()


def kernel_report(directory: str) -> dict:
    """This process's OpenBLAS core, the golden cases it misses, and its digest."""
    missed = []
    for case in CASES:
        for output_format in ("csv", "json"):
            case_dir = Path(directory) / f"{case}-{output_format}"
            case_dir.mkdir()
            if main(run_args(case_dir, case, output_format)) != 0 or (
                output_hashes(case_dir, case, output_format) != GOLDEN[case, output_format]
            ):
                missed.append(f"{case}-{output_format}")
    return {"core": openblas_core(), "missed": missed, "library": library_digest()}


def test_bytes_do_not_depend_on_the_openblas_kernel(tmp_path, fresh_python):
    default_core = openblas_core()
    if default_core is None:
        pytest.skip("numpy's OpenBLAS reports no kernel set here")
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from test_golden import kernel_report\n"
        "print(json.dumps(kernel_report(sys.argv[1])))\n"
    )
    ran, digest = [], library_digest()
    for core in OPENBLAS_CORES:
        (tmp_path / core).mkdir()
        result = fresh_python(
            "-c", script, str(tmp_path / core), OPENBLAS_CORETYPE=core
        )
        report = json.loads(result.stdout.splitlines()[-1])
        # OpenBLAS may name a core by an alias (Prescott reads "Katmai"), and
        # ignores a setting the CPU cannot run: then it keeps the default.
        if report["core"] == default_core and core.lower() != default_core.lower():
            continue
        ran.append(f"{core} ({report['core']})")
        assert report["missed"] == [], (core, report["missed"])
        assert report["library"] == digest, core
    print(f"OpenBLAS kernels run besides {default_core}: {', '.join(ran) or 'none'}")
    assert ran, f"no OPENBLAS_CORETYPE setting took effect over {default_core}"
