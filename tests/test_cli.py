import json
import time

import pytest

import hyperbetti.matchings as matchings
from hyperbetti.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("args, flag", [
    (["betti", "--max-faces", "-1", "PATH5"], "--max-faces"),
    (["verify", "--random", "1", "--n", "5", "--m", "3", "--d", "2", "--max-faces", "-1"],
     "--max-faces"),
    (["verify", "--random", "-2", "--n", "5", "--m", "3", "--d", "2"], "--random"),
    (["verify", "--random", "1", "--n", "5", "--m", "3", "--d", "2", "--t-max", "0"],
     "--t-max"),
    (["matchings", "--size-cap", "-2", "PATH5"], "--size-cap"),
])
def test_count_flag_below_one_is_input_error(capsys, data_dir, args, flag):
    args = [str(data_dir / "path5.json") if a == "PATH5" else a for a in args]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == "" and f"{flag} must be >= 1" in err


class TestBettiCommand:
    def test_human_table(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "betti", "--power", "1", str(data_dir / "path5.json"))
        assert code == 0
        assert "regularity(R/I^t) = 3" in out

    def test_cube_json(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "betti", "-t", "3", "--json",
                               str(data_dir / "path5.json"))
        assert code == 0
        data = json.loads(out)
        assert data["reg"] == 9
        assert {"i": 1, "j": 9, "beta": 4} in data["entries"]

    def test_single_edge(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "betti", "--json",
                               str(data_dir / "single-edge-3.json"))
        data = json.loads(out)
        assert data["entries"] == [{"i": 0, "j": 0, "beta": 1}, {"i": 1, "j": 3, "beta": 1}]
        assert data["reg"] == 2

    def test_taylor_matches_faridi(self, capsys, data_dir):
        _, ours, _ = run_cli(capsys, "betti", "-t", "2", "--json",
                             str(data_dir / "four-cycle.json"))
        _, taylor, _ = run_cli(capsys, "betti", "-t", "2", "--json", "--complex", "taylor",
                               str(data_dir / "four-cycle.json"))
        assert json.loads(ours) == json.loads(taylor)

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "betti", str(tmp_path / "absent.json"))
        assert code == 2 and "error:" in err

    def test_invalid_hypergraph_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "edges": [[1, 2], [1, 2, 3]]}')
        code, _, err = run_cli(capsys, "betti", str(bad))
        assert code == 2 and "contained" in err

    @pytest.mark.parametrize("text", ['{"n": 3, "edges": 5}', '{"n": 3, "edges": [5]}',
                                      '{"n": 3, "edges": [[1, 2]], "labels": 5}'])
    def test_malformed_json_shape_is_input_error(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for command in ("betti", "matchings"):
            code, out, err = run_cli(capsys, command, str(bad))
            assert code == 2 and out == "" and err.startswith("error:")
            assert "Traceback" not in err

    def test_non_utf8_file_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bytes.json"
        bad.write_bytes(b"\xff\xfe")
        for command in ("betti", "matchings", "complex"):
            code, out, err = run_cli(capsys, command, str(bad))
            assert code == 2 and out == "" and err.startswith("error:")
            assert "not UTF-8" in err

    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text('{"n": 3, "edges": ' + "[" * 200_000 + "]" * 200_000 + "}")
        for command in ("betti", "matchings", "complex"):
            code, out, err = run_cli(capsys, command, str(bad))
            assert code == 2 and out == "" and err.startswith("error:")
            assert "nested too deeply" in err

    def test_complex_has_no_char_flag(self, capsys, data_dir):
        with pytest.raises(SystemExit) as exit_info:
            main(["complex", "--char", "3", str(data_dir / "path5.json")])
        assert exit_info.value.code == 2
        assert "--char" in capsys.readouterr().err

    def test_zero_power_is_input_error(self, capsys, data_dir):
        code, _, _ = run_cli(capsys, "betti", "-t", "0", str(data_dir / "path5.json"))
        assert code == 2

    def test_bad_characteristic_is_input_error(self, capsys, data_dir):
        code, _, _ = run_cli(capsys, "betti", "--char", "6", str(data_dir / "path5.json"))
        assert code == 2

    def test_huge_characteristic_exits_quickly(self, capsys, data_dir):
        # 2^89 - 1 is prime but above the deterministic Miller-Rabin bound
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "betti", "--char", str((1 << 89) - 1),
                               str(data_dir / "path5.json"))
        assert code == 2 and "exceeds" in err
        assert time.perf_counter() - start < 1.0

    def test_large_prime_characteristic(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "betti", "--char", str((1 << 61) - 1), "--json",
                               str(data_dir / "path5.json"))
        assert code == 0 and json.loads(out)["reg"] == 3

    def test_boolean_vertex_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bool.json"
        bad.write_text('{"n": 2, "edges": [[true, 2]]}')
        code, out, err = run_cli(capsys, "betti", str(bad))
        assert code == 2 and "not an integer" in err and out == ""

    def test_resource_cap_exit(self, capsys, data_dir):
        code, _, err = run_cli(capsys, "betti", "-t", "3", "--max-faces", "4",
                               str(data_dir / "path5.json"))
        assert code == 3 and "resource cap" in err

    def test_cap_past_printable_face_counts(self, capsys, tmp_path):
        # a spread facet of the cube of a 50-edge path has over 14284 vertices,
        # so its face count has more decimal digits than Python prints
        path50 = tmp_path / "path50.json"
        path50.write_text(json.dumps({"n": 51, "edges": [[k, k + 1] for k in range(1, 51)]}))
        code, out, err = run_cli(capsys, "betti", "-t", "3", str(path50))
        assert code == 3 and out == ""
        assert "resource cap:" in err and "2^" in err

    @pytest.mark.parametrize("command", ["betti", "complex"])
    def test_power_walk_over_budget_exits_quickly(self, capsys, data_dir, command):
        # C(203, 3) factorization tuples of the four edges at t = 200 are over
        # the fixed 2^20 budget
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "-t", "200",
                                 str(data_dir / "four-cycle.json"))
        assert code == 3 and out == "" and "factorization tuples" in err
        assert time.perf_counter() - start < 1.0

    def test_max_faces_at_face_count_answers(self, capsys, data_dir):
        # the support complex of the cube of path5 has 8 faces, empty face included
        code, out, _ = run_cli(capsys, "betti", "-t", "3", "--max-faces", "8",
                               "--json", str(data_dir / "path5.json"))
        assert code == 0 and json.loads(out)["reg"] == 9

    def test_force_is_unknown(self, capsys, data_dir):
        with pytest.raises(SystemExit) as exit_info:
            main(["betti", "--force", str(data_dir / "path5.json")])
        assert exit_info.value.code == 2
        assert "--force" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["betti", "complex"])
    def test_wide_ring_exits_quickly(self, capsys, tmp_path, command):
        # 10^8 variables: the edge ideal's exponent vectors are refused unbuilt
        wide = tmp_path / "wide.json"
        wide.write_text('{"n": 100000000, "edges": [[1, 2]]}')
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, str(wide))
        assert code == 3 and out == ""
        assert "100000000 exponent entries for the edge ideal" in err
        assert time.perf_counter() - start < 1.0


class TestMatchingsCommand:
    def test_example39(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "matchings", "--json",
                               str(data_dir / "example39.json"))
        assert code == 0
        data = json.loads(out)
        assert data["self_semi_induced_excess"] == 4
        assert data["semi_induced_excess"] == 5

    def test_path5_human(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "matchings", str(data_dir / "path5.json"))
        assert code == 0
        assert "matching_number" in out and " 1" in out

    def test_family_walk_over_budget(self, capsys, tmp_path):
        path40 = tmp_path / "path40.json"
        path40.write_text(json.dumps({"n": 41, "edges": [[k, k + 1] for k in range(1, 41)]}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "matchings", str(path40))
        assert code == 3 and "resource cap" in err and out == ""
        assert time.perf_counter() - start < 1.0
        code, out, _ = run_cli(capsys, "matchings", "--size-cap", "3", str(path40))
        assert code == 0 and "lower bounds only" in out

    def test_listing_walks_the_families_once(self, capsys, tmp_path, monkeypatch):
        path40 = tmp_path / "path40.json"
        path40.write_text(json.dumps({"n": 41, "edges": [[k, k + 1] for k in range(1, 41)]}))
        calls = []
        classify_indices = matchings._classify_indices

        def counted(hypergraph, idx):
            calls.append(idx)
            return classify_indices(hypergraph, idx)

        monkeypatch.setattr(matchings, "_classify_indices", counted)
        code, out, _ = run_cli(capsys, "matchings", "--list", "matching", "--size-cap", "3",
                               str(path40))
        assert code == 0 and "[1, 3, 5] type (3, 6)" in out
        # 40 + 780 + 9880 subsets of at most three edges, each classified once
        assert len(calls) == 10700

    def test_wide_ring_answers(self, capsys, tmp_path):
        # the family walk reads edge masks and never builds the edge ideal
        wide = tmp_path / "wide.json"
        wide.write_text('{"n": 100000000, "edges": [[1, 2]]}')
        code, out, _ = run_cli(capsys, "matchings", "--json", str(wide))
        assert code == 0 and json.loads(out)["matching_number"] == 1

    def test_family_listing(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "matchings", "--list", "self_semi_induced",
                               "--size", "2", str(data_dir / "path5.json"))
        assert code == 0
        assert "[1, 2] type (2, 5)" in out


class TestComplexCommand:
    def test_path5_cube_dump(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "complex", "-t", "3", str(data_dir / "path5.json"))
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 4
        assert all(v["degree"] == 9 for v in data["vertices"])
        assert [v["tuple"] for v in data["vertices"]] == [[3, 0], [2, 1], [1, 2], [0, 3]]
        assert [f["degree"] for f in data["faces"]["1"]] == [11, 11, 11]
        assert "2" not in data["faces"]

    def test_t1_taylor_equals_faridi(self, capsys, data_dir):
        _, a, _ = run_cli(capsys, "complex", str(data_dir / "four-cycle.json"))
        _, b, _ = run_cli(capsys, "complex", "--complex", "taylor",
                          str(data_dir / "four-cycle.json"))
        da, db = json.loads(a), json.loads(b)
        assert da["vertices"] == db["vertices"]
        assert da["faces"] == db["faces"]


class TestVerifyCommand:
    def test_random_run_is_deterministic(self, capsys):
        args = ["verify", "--random", "5", "--seed", "7", "--n", "6", "--m", "3", "--d", "2"]
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        lines = out_a.strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["failed"] == 0
        assert all(json.loads(line) for line in lines[:-1])

    def test_family_walk_over_budget_keeps_the_reports(self, capsys):
        # 21 edges: the family walk is over its budget and every complex over the face cap
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--random", "1", "--n", "22", "--m", "21",
                               "--d", "2")
        elapsed = time.perf_counter() - start
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and elapsed < 5.0
        assert lines[-1]["summary"] == {"passed": 0, "gated": 16, "failed": 0}
        assert all(r["witness"]["reason"].startswith("resource cap:") for r in lines[:-1])

    def test_fifty_edges_gate_on_the_cap(self, capsys):
        # at t = 2 and 3 the support complexes have facets too large to print
        # their face counts in decimal; the reports are gated all the same
        code, out, err = run_cli(capsys, "verify", "--random", "1", "--n", "30", "--m", "50",
                                 "--d", "2")
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and "Traceback" not in err
        assert lines[-1]["summary"] == {"passed": 0, "gated": 16, "failed": 0}
        assert all(r["witness"]["reason"].startswith("resource cap:") for r in lines[:-1])

    def test_random_edges_from_a_large_pool(self, capsys):
        # C(2000, 3) = 1331334000 candidate edges: sampled without listing them
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--random", "1", "--n", "2000", "--m", "3",
                               "--d", "3", "--t-max", "1")
        assert code == 0 and json.loads(out.splitlines()[-1])["summary"]["failed"] == 0
        assert time.perf_counter() - start < 1.0

    def test_random_pool_past_sampling_range_is_capped(self, capsys):
        # C(200, 20) > sys.maxsize: random.sample cannot index that many
        code, out, err = run_cli(capsys, "verify", "--random", "1", "--n", "200", "--m", "3",
                                 "--d", "20")
        assert code == 3 and out == "" and "too many to sample" in err

    def test_random_requires_parameters(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--random", "3")
        assert code == 2 and "--random needs" in err

    def test_failure_summary_gives_exit_one(self, capsys, monkeypatch):
        import hyperbetti.cli as cli

        def broken_corpus(entries, t_max, char, max_faces):
            return [], {"passed": 0, "gated": 0, "failed": 2}

        monkeypatch.setattr(cli, "run_corpus", broken_corpus)
        code, out, _ = run_cli(capsys, "verify", "--random", "1", "--n", "4",
                               "--m", "2", "--d", "2")
        assert code == 1
        assert json.loads(out.strip().splitlines()[-1])["summary"]["failed"] == 2
