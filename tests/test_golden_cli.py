"""Golden output of every CSV-writing CLI subcommand.

Each case runs one subcommand on a fixed seed at small size and compares the
sha256 of the CSV it writes (header and data rows) with a recorded digest.
The cases cover the exact 1-D paths, two of them at an N whose trials run on
a thread pool, and the probe-net paths. A refactor of
the study runners must leave every digest unchanged; a digest moves only when
a change is meant to alter the numbers, and then it is recorded again.
"""

import hashlib

import pytest

from covrad.cli import main as cli_main

CASES = {
    "study_interval": (
        ["study", "--domain", "interval", "--n-grid", "50", "200", "--trials", "20",
         "--seed", "3"],
        "cbe458a1d49a466772ac934d37e6cb01ef6b40ef884b8a9580d5d2111095e0ce",
    ),
    "study_cube2_p2": (
        ["study", "--domain", "cube2", "--n-grid", "100", "--trials", "4", "--p", "2",
         "--eta", "0.2", "--seed", "3"],
        "9bd287ba287d696d5c131f99383589e056ce342c856e806f2705f4a4cb0fa037",
    ),
    "study_ball2": (
        ["study", "--domain", "ball2", "--n-grid", "100", "--trials", "4", "--eta", "0.2",
         "--seed", "3"],
        "b30c60ccc96bc3da5f5ff28dc1f3a2cc2d2fad20d685b6647025afadd93996ec",
    ),
    "study_unit_box": (
        ["study", "--domain", "unit_box", "--n-grid", "50", "--trials", "3", "--eta", "0.2",
         "--seed", "3"],
        "12ea6f1ab92051195d72de12ecd66096fa970a2685f9005cba7a06d693cf2c5a",
    ),
    "study_cantor": (
        ["study", "--domain", "cantor", "--n-grid", "200", "--trials", "3", "--seed", "3"],
        "41e7471d8fd2d4a8e3c2dd917f336e1d231aaa5b7b5b5dc77f63e1ef0ba6d8bd",
    ),
    # above experiments._POOL_FROM: the trials run on a thread pool
    "study_circle_pooled": (
        ["study", "--domain", "circle", "--n-grid", "40000", "--trials", "4", "--seed", "3"],
        "36cb2f64534e00939a0484790d8b69a4e0f102fd389586cf9412647cf74170a9",
    ),
    "study_cantor_pooled": (
        ["study", "--domain", "cantor", "--n-grid", "40000", "--trials", "4", "--seed", "3"],
        "8cb19227cf85d7500681f996df9e4c404fc2e47edb7ae1890c7038f85d9ff92c",
    ),
    "tail_interval": (
        ["tail", "--domain", "interval", "--n", "100", "--trials", "20", "--seed", "3"],
        "0c24d04539c79349d0de52e6cda561775e56fe5fd264606188aadde4b9b51e4a",
    ),
    "tail_sphere2": (
        ["tail", "--domain", "sphere2", "--n", "100", "--trials", "4", "--eta", "0.2",
         "--thresholds", "0.2", "0.3", "0.5", "--seed", "3"],
        "8108994d7a7d143428eb8a85e726f7e1435d3f60e3304a049145074ad527ddd3",
    ),
    "zn_d1": (
        ["zn", "--d", "1", "--n-grid", "100", "1000", "--trials", "10", "--seed", "3"],
        "4db0142b847c715144b2034cded3d0ce81032026c6d5177c865c201a09629cb1",
    ),
    "zn_d2": (
        ["zn", "--d", "2", "--n-grid", "100", "--trials", "4", "--eta", "0.2", "--seed", "3"],
        "a32ec3aecad8dd1efd5523d6868aeb75ed1fb9530e8f16d5792b3133ce07c91f",
    ),
    "arcsine_right_edge": (
        ["arcsine", "--a", "2", "--side", "right_edge", "--n-grid", "100", "1000",
         "--trials", "10", "--seed", "3"],
        "2cf9759e18468b21cb738789532ee595d6323e762d336c9bbfda248140de1c7f",
    ),
    "arcsine_interior": (
        ["arcsine", "--a", "1", "--side", "interior", "--n-grid", "100", "--trials", "10",
         "--seed", "3"],
        "9c2fa230d66bb32f4e0ae7c57cd3da194889bffeef1814401bdb9dd3f0d1eec9",
    ),
    "epsnet_circle": (
        ["epsnet", "--domain", "circle", "--n-grid", "100", "300", "--trials", "10",
         "--c-mult", "1.5", "--seed", "3"],
        "a96f5ed29d2c63d5df43090c54558a20a75a9d052b8c0469a23937f679e8621d",
    ),
    "epsnet_sphere2": (
        ["epsnet", "--domain", "sphere2", "--n-grid", "100", "300", "--trials", "10",
         "--c-mult", "1.2", "--seed", "3"],
        "657ebc4be5a903bbd895379c8213bc05e56c4f26ede43d81260dc950926a0ef6",
    ),
    "fgrid": (
        ["fgrid", "--N", "100", "1000", "--n", "10", "50", "--m", "2", "5", "10"],
        "e3758ef9f440f0ccb36479f6daa6ca191e61b9a8f23adcb04fffc6135c541bbe",
    ),
    "versus_d1": (
        ["versus", "--d", "1", "--n-grid", "100", "1000", "--trials", "10", "--seed", "3"],
        "acb3f07bc30eb2783f729a7ee430e3461928b26e489be8d10fd522fbf12d547f",
    ),
    "versus_d2": (
        ["versus", "--d", "2", "--n-grid", "100", "--trials", "4", "--eta", "0.2",
         "--seed", "3"],
        "2d64cedd360502f9ebfdb39a15fe9c9f418cf18f07e3da829ca1c9a1a749d799",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_digest(case, tmp_path, capsys):
    argv, want = CASES[case]
    out = tmp_path / f"{case}.csv"
    assert cli_main([*argv, "--out", str(out)]) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == want, f"{case}: CSV digest {got}"
