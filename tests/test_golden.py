"""Golden output bytes: every CSV the analysis commands write on the
fixture records, pinned by SHA-256.

One table holds for every supported CPython version (3.10 to 3.13):
the smoothed change rates are exact means and the ensemble std is the
root of the exact variance, so no float result depends on how an
interpreter sums or rounds. A change that means to alter outputs
updates the digests in the same commit and says why.
"""

import hashlib

import pytest

from helpers import tree_bytes, write_fixture_csvs
from gridpanel.cli import main

COMMANDS = {
    "panel": (),
    "motifs": (),
    "temporal": (),
    "baselines": ("--replicates", "3", "--per-year"),
}

SCOPES = {
    "default": (),
    "floor0_subrange": ("--voltage-floor", "0", "--year-start", "1961", "--year-end", "1990"),
}

GOLDEN = {
    ("baselines", "default"): {
        "baselines.csv": "0028eac24c9aae03b47c0559dc8c11de39856dac00b2b18934ae32dfce10ff30",
        "baselines_per_year.csv": "5ee9f14214934244b31a76c2b1c08d58f0d371ef79973f8640453898388bb68c",
        "baselines_summary.csv": "207ef8a517b154522fb885914677c8d498d784e36729c2d2fbd46969afb76150",
    },
    ("baselines", "floor0_subrange"): {
        "baselines.csv": "eadb9a06192637af9ce05b609e9d99b0cb99d9258610c468df4a029f68b7ee77",
        "baselines_per_year.csv": "d82e73e33eef79df33aa73d95c7bf85a2145524ec0365eaba7321a3a6a737bc0",
        "baselines_summary.csv": "2dd331d3336138a056b23be00c7257d96d33e73dd5d5b0cda50983b713cca0ed",
    },
    ("motifs", "default"): {
        "motifs.csv": "05ac70840467a08a833cb27e7de9f4b2dd14da3505592f28e84a600e8b6edb6f",
    },
    ("motifs", "floor0_subrange"): {
        "motifs.csv": "b57f4a9cb2fd9cd2f551cb835af321265e7b9d10625a3cd314ef91f82323b4c2",
    },
    ("panel", "default"): {
        "panel_tidy.csv": "813ca88060598ad8fcbed1a441bcbefdaf7396131412e6706eee10b3972bf219",
        "panel_wide.csv": "f483fc281a676abc469ab2fcb1a18b7f981b56cfdb530779fb23d93b6824825b",
    },
    ("panel", "floor0_subrange"): {
        "panel_tidy.csv": "9574bb5eaa12f43cd07c5ce11ccfbcf0730a5ea07a4b2713cc7b57ed2034a6d8",
        "panel_wide.csv": "eba76053576f907d66d693ae674b06339de989f4ad5ad8649c9087d322d01738",
    },
    ("temporal", "default"): {
        "avg_lifetime_by_year.csv": "1d405feb1077ef0f2d8007d50c124d663df9e37408b77fa4f354a536a6dba360",
        "change_rates.csv": "b6907c0ab38687131f0a7cb72662e0dcde5d7aa917e46851e7aa6727b896bd4a",
        "lifetimes.csv": "171caeb980b2bb6ba8a59c192236996c75442eb7272e728dd63587789d03b055",
        "underperformers.csv": "0735d034b54c8c4d1db7f0b7de7bf86d2ac8cb2c29addd4f67a3843a9781fc95",
    },
    ("temporal", "floor0_subrange"): {
        "avg_lifetime_by_year.csv": "3ed625294a5ea24a11fb594dfb0bbd2248a52393556aeba00de5a1d0990ee284",
        "change_rates.csv": "48743db06fc22fa0297c0aefee840f3dce0ae94e1cb557a48e48e5ad58264d2a",
        "lifetimes.csv": "cb36470db5dad35818fcd4b2beb484a81982b4e9fa3c6f1b0d21e7c9382414b9",
        "underperformers.csv": "04c9e6446b88ad5b03f42c4894e35b7c3a34c9877016fee7d71b014920bcff40",
    },
}


def csv_digests(directory):
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in tree_bytes(directory).items()
        if name.endswith(".csv")
    }


@pytest.mark.parametrize("scope", sorted(SCOPES))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_csv_bytes_match_recorded_digests(tmp_path, country_records, capsys, command, scope):
    paths = write_fixture_csvs(country_records, tmp_path)
    out = tmp_path / "out"
    argv = [
        command,
        "--nodes", paths["nodes"],
        "--edges", paths["edges"],
        "--events", paths["events"],
        "--country-tag", "testland",
        "--out", str(out),
        *SCOPES[scope],
        *COMMANDS[command],
    ]
    assert main(argv) == 0
    assert csv_digests(out) == GOLDEN[command, scope]
