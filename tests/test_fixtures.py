import os

from genpos.fixtures import (FIXTURE_DIR, fifth_roots, fixture_files,
                             write_fixture_files)


def test_fixture_files_regenerate_byte_identically(tmp_path):
    shipped = sorted(n for n in os.listdir(FIXTURE_DIR) if n.endswith(".json"))
    assert len(shipped) == 14
    assert sorted(fixture_files()) == shipped
    write_fixture_files(str(tmp_path))
    for name in shipped:
        with open(os.path.join(FIXTURE_DIR, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def test_fifth_roots_are_the_powers_of_a_primitive_root():
    roots = fifth_roots()
    assert roots == tuple(pow(3, k, 11) for k in range(5))
    assert len(set(roots)) == 5 and all(pow(r, 5, 11) == 1 for r in roots)
