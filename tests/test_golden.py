"""Golden output hashes: a config and seed must keep producing the same bytes.

Each case runs ``sqzlab run`` and compares the sha256 of the data file and
of ``manifest.json`` with a pinned value.  The seven default cases use the
seeds and the ``photon-record`` power of the benchmark's reference configs
(``bench/workloads.py``, first ``cli-cold`` round of seed 0), so their CSV
hashes equal the ``output_sha256`` that ``bench/run.py`` reports.  The other
cases exercise the broadcasting model paths away from the defaults.

Bit identity holds for a fixed numpy build; a numpy upgrade that changes a
ufunc's last bit shows up here first.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqzlab
from sqzlab.cli import main

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
    # One PSD segment of 2 MiB, longer than welch_psd's 512 KiB block.
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
        "f84b2fc5371544c9ec7adba59957ca5cfd7075b81d976cfcff43bedd583ab71b",
        "9a95ce4c24f0ee529e4e8c8304f9932af7513ee8767bac09b55654c07a9c228a",
    ),
    ("fit-loss", "json"): (
        "460fd4caa8eb9802e9ad86aa81c6d9b48c22a1c5d284af298e04bbdcfbd42dfd",
        "d10957640a03bc95e2781dcd85eab76351739aa1393f3848f060d25f71fe4f3a",
    ),
    ("photon-record", "csv"): (
        "a4f056bd01369caf1926c774fc2b91e4699a63dfab17df3949cc8693fb8483b5",
        "6c34282a59a551dba0a041a8026b202c1e202b4c0e44312ae6b5f2f44343ca85",
    ),
    ("photon-record", "json"): (
        "95066644a965e73d4e2bbcab0fb6107f142e1864565c4c6baa3330249a64727e",
        "2ef89c1b36f09540551fb4c87bbf86f39bf25613addb7343aa4594301e27f3d4",
    ),
    ("bhd-psd", "csv"): (
        "ee6ee0d1f2c406171ae001a4d7b02f0c7bde5c176d8f21415590f3ce1e8a99ca",
        "6ab05d7483cea42854d66c6448a8105df85e0299ce1c2c8477bd8dfb69d3f632",
    ),
    ("bhd-psd", "json"): (
        "24f86f594277095382f95567a361ed0081b3d0c39e4b1837e55ba5abc8c49b31",
        "e094a56acc00dcc967d477c8ede14a5acafacdbf02028e3dc50e3fa69a7fde68",
    ),
    ("snr-equivalence", "csv"): (
        "65b6e051c691b9ec94a8cdb3428577132cc7173c62347c23b276094e8801352f",
        "e2aa727d0319eba4d8e48e153ed952ad55316ee47a49d315bda7894b94e5a0f0",
    ),
    ("snr-equivalence", "json"): (
        "fce680ebec27c57c8708dd62391b0192536d8e8181021a8a6e728f2550777841",
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
        "b004c7134e81087ac931709d4f692d1993cf2bc670c0f39576af6caeec67714b",
        "fc125b6f0d7378477637e8cc2ab2200a42f865772cac2cd9643acd9a8f37cb3d",
    ),
    ("photon-record-1000-photons", "json"): (
        "ddc807924e68c76b3f4362a80842aae707b67f7ba10ad06abc809ab004424df7",
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
        "974e9be342f02405b3494535ab6ea573fddbb9862a1859fcd2a0ce4bd4b1c384",
        "1414e5e504a92005048bc5bae42f942bbc9d08ca661ac5b177235c69a4cc2e7a",
    ),
    ("decohere-jitter-sideband", "json"): (
        "04e6c39b9109e9933be6ae3a70462c43fcffbb25cfa831e87ad5a4d252ce5c8c",
        "f635457f8f0279bf2509d2ee59325f6419830e09b90cbc941e66b0f8cacd49c4",
    ),
    ("fit-loss-fixed-jitter", "csv"): (
        "1e547b57e367436f6a80c7bfb35bc4d7b984d73492a84cfa7f6e72cdbca157bd",
        "f9468038227763b9940e25468dbb7acb64751ee05ea20d8ef0a60754fddafdf8",
    ),
    ("fit-loss-fixed-jitter", "json"): (
        "dc499159e77fe62664dcdeebf12db6b75e513ba2c224c69789c26a6e832c6f3b",
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
    ),    ("bhd-psd-lo-leak-tail", "csv"): (
        "26fb592f22ef32cdeded0501fa79396f93ec82e2be07252619a53420ad6bd0b5",
        "7549ed86121a84f573f505edc209db75d899c23a126f757a04a1a2974c1fa51e",
    ),
    ("bhd-psd-lo-leak-tail", "json"): (
        "daa49440924d1cbf00000d50cef5722aaedc1c85fd087f9851564793faa7028d",
        "82137aea75e9d32384b05f09fb547adccec34fffb4788c20c1dde7295e0478d7",
    ),
    ("bhd-psd-long-segment", "csv"): (
        "c42f1b48ebf61be9ca184d11e4e5eb7abf0af91c0436ce7692e71330f9e380f2",
        "26ce6fac36e73ab70f801c29da21b97abfb954821404b9d70bf244ac0366dc69",
    ),
    ("bhd-psd-long-segment", "json"): (
        "601bb55d4950ef0d478a9440fc632eab3d4534818e447fce07ac3f1a9f087d81",
        "52b78079b9f302f9ba37fad5a9e830b8bdc4dfa60479f6c50bbdd1e250b8582a",
    ),
    ("snr-equivalence-tail", "csv"): (
        "c8c2832bf23ceea4d49d42e847cd3dd8a9c5bc887a7174bc83f4203fb68331c9",
        "24e1cca1f9230df0dce5bcf4dc289ecdbe37b3ddf32a64911b3d0a8510c8fae5",
    ),
    ("snr-equivalence-tail", "json"): (
        "a72199285afe21a02a79d5e929a6c7188890c03844820527d81134e7dc984905",
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


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_output_bytes_are_pinned(tmp_path, case, output_format):
    assert main(run_args(tmp_path, case, output_format)) == 0
    assert output_hashes(tmp_path, case, output_format) == GOLDEN[case, output_format]


def test_default_bytes_on_the_cold_path(tmp_path):
    # pytest has imported numpy before sqzlab.cli, so the runs above keep
    # OpenBLAS's thread pool.  A cold ``sqzlab run`` is the first to import
    # numpy and starts it single-threaded; fit-loss's lstsq then takes that
    # path.  One fresh interpreter runs every default case that way.
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
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(sqzlab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert len(runs) == 14
    for case, output_format, directory in runs:
        hashes = output_hashes(directory, case, output_format)
        assert hashes == GOLDEN[case, output_format], (case, output_format)
