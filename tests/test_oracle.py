import importlib

import pytest

from lspgen import extensions
from lspgen.cli import main
from lspgen.decorations import decoration_identity, read_deco
from lspgen.oracle import (bruteforce_decorations, cross_check,
                           decorations_brute, triangulated_disks)

genmod = importlib.import_module("lspgen.generate")

TABLE_K1 = {1: 2, 2: 2, 3: 4, 4: 6, 5: 6, 6: 20}


def test_disk_counts_start():
    assert len(triangulated_disks(1)) == 1
    assert len(triangulated_disks(2)) == 1
    assert len(triangulated_disks(3)) == 1   # three triangles always fan
    assert len(triangulated_disks(4)) == 4


def test_bruteforce_counts_small():
    for r, expect in TABLE_K1.items():
        assert len(decorations_brute(r)) == expect


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        bruteforce_decorations(9)


def test_k_filtering():
    assert len(bruteforce_decorations(5, 3)) == 4
    assert len(bruteforce_decorations(5, 2)) == 6


def test_cross_check_small():
    for r in (1, 2, 3, 4, 5):
        report = cross_check(r, 1)
        assert report["equal"], report


@pytest.fixture
def without_extension_2(monkeypatch):
    # drop pendant attachment (extension 2): the star skeleton is lost
    # and the rate-4 sets must differ
    original = extensions.extension_sites

    def crippled(g, walk, *limit):
        return [site for site in original(g, walk, *limit) if site[0] != 2]

    monkeypatch.setattr(genmod, "extension_sites", crippled)


def test_cross_check_catches_mutations(without_extension_2):
    report = cross_check(4, 1)
    assert not report["equal"]
    assert report["only_brute"]


def test_verify_prints_the_decorations_that_differ(without_extension_2,
                                                   capsys):
    assert main(["verify", "--rate", "4"]) == 1
    out = capsys.readouterr().out
    records = [read_deco(chunk) for chunk in out.split("\n\n")
               if chunk.startswith("deco ")]
    report = cross_check(4, 1)
    assert out.count("only_brute\n") == len(report["only_brute"]) > 0
    assert [decoration_identity(d) for d in records] == \
        [decoration_identity(d) for d in report["only_brute"]]
