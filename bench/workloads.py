"""The four workloads: seeded set-up, one timed pass, a fresh-process
command, and the checks that run outside the timed section.

A pass is a fixed list of steps ``(name, fn)``; each ``fn(F, env)`` makes
one call into ``fdes`` (``F`` is the package, looked up when the pass
starts so that the tracer's wrappers are the ones called) and its result
is stored in ``env`` under the step's name.  Every pass attempts every step,
so every run attempts whole rounds of the same operations.  A round also
runs the workload's fresh-process command ``cli_runs`` times.  A run makes
at least ``min_rounds`` rounds, even when a round outlasts the run length:
at least two, so that each side of a timed pair goes first once.

The checks compare each result with what the benchmark computes itself
(``checkers``), with required properties, and on desk-scale instances with
the brute-force oracles.  They never compare with a stored copy of earlier
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import checkers as C
import instances as I

ZERO = Fraction(0)


def table(language) -> dict:
    return dict(language.items())


def render_string(s: tuple) -> str:
    return ".".join(s) if s else "eps"


def render(g: Fraction) -> str:
    return str(g.numerator) if g.denominator == 1 else f"{g.numerator}/{g.denominator}"


def fdl_alphabet(name: str, events, controllable, observable) -> str:
    lines = [f"[alphabet {name}]", "events " + " ".join(sorted(events))]
    if controllable:
        lines.append("controllable " + " ".join(sorted(controllable)))
    if observable:
        lines.append("observable " + " ".join(sorted(observable)))
    return "\n".join(lines) + "\n\n"


def fdl_language(name: str, lang: dict, alphabet: str = "E") -> str:
    lines = [f"[language {name}]", f"alphabet {alphabet}"]
    lines += [f"{render_string(s)} {render(g)}" for s, g in sorted(lang.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    return "\n".join(lines) + "\n\n"


def fdl_sites(name: str, sites, alphabet: str = "E") -> str:
    lines = [f"[sites {name}]", f"alphabet {alphabet}"]
    for i, site in enumerate(sites, start=1):
        lines.append(f"site {i} controllable " + " ".join(sorted(site["controllable"])))
        lines.append(f"site {i} observable " + " ".join(sorted(site["observable"])))
    return "\n".join(lines) + "\n\n"


def fdl_automaton(name: str, aut: I.Automaton, alphabet: str = "E") -> str:
    lines = [f"[automaton {name}]", f"alphabet {alphabet}", "states " + " ".join(aut.states),
             f"initial {aut.initial}"]
    lines += [f"trans {p} {a} {q} {render(g)}" for (p, a, q), g in sorted(aut.transitions.items())]
    return "\n".join(lines) + "\n\n"


def instance_alphabet(inst: I.Instance) -> str:
    return fdl_alphabet("E", inst.events, inst.controllable, inst.observable)


def library_model(F, inst: I.Instance):
    """Alphabet, projection and (when present) automaton as fdes objects."""
    alphabet = F.Alphabet(set(inst.events), controllable=set(inst.controllable),
                          observable=set(inst.observable))
    aut = None
    if inst.automaton is not None:
        aut = F.FuzzyAutomaton(frozenset(inst.automaton.states), alphabet,
                               inst.automaton.initial, dict(inst.automaton.transitions))
    return alphabet, F.natural_projection(alphabet), aut


def supervisor_rows(supervisor) -> tuple:
    """(observable, controllable, rows) as the checkers' closed loop takes it."""
    return (supervisor.projection.observable, supervisor.controllables, supervisor.table)


class Problems:
    """Collects failed checks; ``check(ok, what)`` records ``what`` if not ok."""

    def __init__(self):
        self.found: list[str] = []

    def check(self, ok, what: str) -> None:
        if not ok:
            self.found.append(what)


def check_plant(problems: Problems, inst: I.Instance, plant, seed: int) -> None:
    """Plant equals the benchmark's own BFS, and sampled strings equal a
    per-string max-min path evaluation."""
    grades = table(plant)
    problems.check(grades == inst.plant, "plant differs from the max-min BFS")
    if inst.automaton is None:
        return
    rng = random.Random(f"sample/{seed}")
    support = sorted(inst.plant, key=lambda t: (len(t), t))
    samples = rng.sample(support, min(100, len(support)))
    samples += [tuple(rng.choice(inst.events) for _ in range(rng.randint(1, inst.automaton.horizon)))
                for _ in range(100)]
    for s in samples:
        expect = C.path_grade(inst.automaton.transitions, inst.automaton.initial, s)
        problems.check(plant.grade(s) == expect, f"plant grade of {render_string(s)}")


def check_report(problems: Problems, what: str, report, violations: list, exact: bool) -> None:
    """Verdict agrees with the independent checker; with ``exact`` the
    report carries one witness per violation."""
    problems.check(report.holds == (not violations), f"{what}: verdict disagrees")
    if exact:
        problems.check(len(report.witnesses) == len(violations), f"{what}: witness count")


def check_fdl(problems: Problems, doc, parsed) -> None:
    problems.check(parsed.languages == doc.languages, "FDL round trip: languages")
    problems.check(
        {n: (s.projection, s.controllables, dict(s.table)) for n, s in parsed.supervisors.items()}
        == {n: (s.projection, s.controllables, dict(s.table)) for n, s in doc.supervisors.items()},
        "FDL round trip: supervisors",
    )


# ---------------------------------------------------------------------------
# cyclic-plant and blind-tree: the central pass.


class Central:
    """Model -> plant -> four predicates -> both fixed points -> SCP ->
    central synthesis and closed loop -> FDL text and back."""

    def __init__(self, name: str, why: str, family, cli: str, cli_runs: int, min_rounds: int):
        self.name, self.why, self.family, self.cli = name, why, family, cli
        self.cli_runs, self.min_rounds = cli_runs, min_rounds

    def setup(self, F, seed: int, workdir: Path):
        inst = self.family(seed)
        alphabet, pr, aut = library_model(F, inst)
        rows = inst.supervisors[0]
        supervisor = F.make_supervisor(pr, frozenset(inst.controllable), rows)
        loop = C.closed_loop(inst.plant, [(frozenset(inst.observable), frozenset(inst.controllable), rows)])
        minimal, legal = C.intersection(inst.spec, loop), C.union(inst.spec, loop)
        head = instance_alphabet(inst)
        files = {"plant": workdir / "plant.fdl", "spec": workdir / "spec.fdl",
                 "min": workdir / "min.fdl", "max": workdir / "max.fdl"}
        files["plant"].write_text(head + fdl_language("L", inst.plant))
        files["spec"].write_text(head + fdl_language("K", inst.spec))
        files["min"].write_text(head + fdl_language("MIN", minimal))
        files["max"].write_text(head + fdl_language("MAX", legal))
        return dict(inst=inst, alphabet=alphabet, pr=pr, aut=aut, supervisor=supervisor,
                    loop=loop, minimal=minimal, legal=legal, files=files, seed=seed)

    def steps(self, st) -> list:
        inst, alphabet, pr = st["inst"], st["alphabet"], st["pr"]

        def plant(F, e):
            if st["aut"] is not None:
                return F.generated_language(st["aut"], inst.automaton.horizon)
            return F.build_language(alphabet, inst.plant)

        def fdl_doc(F, e):
            doc = F.FdlDocument()
            doc.alphabets["E"] = alphabet
            doc.languages.update(INF=e["infimal"], SUP=e["supremal"], CL=e["achieved"])
            doc.supervisors.update(S=e["synthesized"], SCP=e["scp"].supervisor)
            return doc

        return [
            ("plant", plant),
            ("spec", lambda F, e: F.build_language(alphabet, inst.spec)),
            ("controllable", lambda F, e: F.is_controllable(e["spec"], e["plant"])),
            ("observable", lambda F, e: F.is_observable(e["spec"], e["plant"], pr)),
            ("strongly_observable", lambda F, e: F.is_strongly_observable(e["spec"], e["plant"], pr)),
            ("normal", lambda F, e: F.is_normal(e["spec"], e["plant"], pr)),
            ("infimal", lambda F, e: F.infimal_co(e["spec"], e["plant"], pr)),
            ("supremal", lambda F, e: F.supremal_cn(e["spec"], e["plant"], pr)),
            ("loop", lambda F, e: F.closed_loop_central(e["plant"], st["supervisor"])),
            ("minimal", lambda F, e: F.intersection(e["spec"], e["loop"])),
            ("legal", lambda F, e: F.union(e["spec"], e["loop"])),
            ("scp", lambda F, e: F.solve_scp(e["minimal"], e["legal"], e["plant"], pr)),
            ("synthesized", lambda F, e: F.synthesize_central(e["loop"], e["plant"], pr)),
            ("achieved", lambda F, e: F.closed_loop_central(e["plant"], e["synthesized"])),
            ("doc", fdl_doc),
            ("text", lambda F, e: F.emit_fdl(e["doc"])),
            ("parsed", lambda F, e: F.parse_fdl(e["text"])),
        ]

    def canonical(self, e) -> str:
        return e["text"]

    def cli_args(self, st) -> list[str]:
        f = st["files"]
        if self.cli == "scp":
            return ["scp", "--plant", str(f["plant"]), "--min", str(f["min"]), "--max", str(f["max"])]
        return [self.cli, "--plant", str(f["plant"]), "--spec", str(f["spec"])]

    def check(self, F, st, e, problems: Problems) -> None:
        inst, pr = st["inst"], st["pr"]
        plant, spec = inst.plant, inst.spec
        unc = sorted(set(inst.events) - set(inst.controllable))
        seen, ctrl = frozenset(inst.observable), sorted(inst.controllable)
        check_plant(problems, inst, e["plant"], st["seed"])
        problems.check(table(e["spec"]) == spec, "spec differs from its entries")
        check_report(problems, "controllable", e["controllable"], C.controllable(spec, plant, unc), True)
        check_report(problems, "observable", e["observable"], C.observable(spec, plant, seen, ctrl), False)
        check_report(problems, "strongly observable", e["strongly_observable"],
                     C.strongly_observable(spec, plant, seen, ctrl), False)
        check_report(problems, "normal", e["normal"], C.normal(spec, plant, seen), True)

        inf, sup = table(e["infimal"]), table(e["supremal"])
        problems.check(not C.valid(inf) and not C.valid(sup), "fixed point result is not a language")
        problems.check(not C.below(spec, inf) and not C.below(inf, plant), "spec <= infimal <= plant")
        problems.check(inf != spec and inf != plant, "infimal strictly between spec and plant")
        problems.check(not C.controllable(inf, plant, unc), "infimal is controllable")
        problems.check(not C.observable(inf, plant, seen, ctrl), "infimal is observable")
        problems.check(not C.below(sup, spec), "supremal <= spec")
        problems.check(sup and sup != spec, "supremal non-empty and strictly below spec")
        problems.check(not C.controllable(sup, plant, unc), "supremal is controllable")
        problems.check(not C.normal(sup, plant, seen), "supremal is normal")
        problems.check(F.infimal_co(e["infimal"], e["plant"], pr) == e["infimal"], "infimal_co idempotent")
        problems.check(F.supremal_cn(e["supremal"], e["plant"], pr) == e["supremal"], "supremal_cn idempotent")

        problems.check(table(e["loop"]) == st["loop"], "closed loop of the seeded supervisor")
        problems.check(table(e["minimal"]) == st["minimal"], "intersection")
        problems.check(table(e["legal"]) == st["legal"], "union")
        scp = e["scp"]
        lower = table(scp.infimal)
        problems.check(scp.solvable, "SCP solvable (the seeded closed loop lies between the bounds)")
        problems.check(not C.below(st["minimal"], lower) and not C.below(lower, st["legal"]),
                       "minimal <= SCP infimal <= legal")
        problems.check(not C.controllable(lower, plant, unc) and not C.observable(lower, plant, seen, ctrl),
                       "SCP infimal is controllable and observable")
        if scp.supervisor is not None:
            problems.check(C.closed_loop(plant, [supervisor_rows(scp.supervisor)]) == lower,
                           "SCP supervisor achieves the infimal")
        problems.check(C.closed_loop(plant, [supervisor_rows(e["synthesized"])]) == st["loop"],
                       "central supervisor reproduces the closed loop")
        problems.check(table(e["achieved"]) == st["loop"], "closed_loop_central of the synthesized supervisor")
        check_fdl(problems, e["doc"], e["parsed"])

    def check_cli(self, F, st, e, code: int, stdout: str, problems: Problems) -> None:
        problems.check(code == 0, f"{self.cli} exit code {code}")
        if self.cli == "scp":
            problems.check(stdout.startswith("scp: solvable\n"), "scp verdict")
            doc = F.parse_fdl(stdout.split("\n", 1)[1])
            problems.check(doc.supervisors["S"].table == e["scp"].supervisor.table, "scp supervisor")
        else:
            doc = F.parse_fdl(stdout)
            name, step = {"infimal-co": ("infimal_co", "infimal"), "supremal-cn": ("supremal_cn", "supremal")}[self.cli]
            problems.check(doc.languages[name] == e[step], f"{self.cli} output")


# ---------------------------------------------------------------------------
# two-site: co-observability and the decentralized path.


class TwoSite:
    name = "two-site"
    cli_runs, min_rounds = 1, 2
    why = ("decentralized path: co-observability scans of a whole closed loop "
           "and of a failing spec, two-site synthesis and closed loop")

    def setup(self, F, seed: int, workdir: Path):
        inst = I.two_site(seed)
        alphabet, pr, aut = library_model(F, inst)
        sites, supervisors, plain = [], [], []
        for site, rows in zip(inst.sites, inst.supervisors):
            site_pr = F.Projection(alphabet, frozenset(site["observable"]))
            ctrl = frozenset(site["controllable"])
            sites.append((site_pr, ctrl))
            supervisors.append(F.make_supervisor(site_pr, ctrl, rows))
            plain.append((frozenset(site["observable"]), ctrl, rows))
        loop = C.closed_loop(inst.plant, plain)
        head = instance_alphabet(inst)
        files = {"plant": workdir / "plant.fdl", "loop": workdir / "loop.fdl", "sites": workdir / "sites.fdl"}
        files["plant"].write_text(head + fdl_language("L", inst.plant))
        files["loop"].write_text(head + fdl_language("K", loop))
        files["sites"].write_text(head + fdl_sites("T", inst.sites))
        return dict(inst=inst, alphabet=alphabet, aut=aut, sites=sites, supervisors=supervisors,
                    loop=loop, files=files, seed=seed)

    def steps(self, st) -> list:
        inst, alphabet = st["inst"], st["alphabet"]
        (s1, s2), (r1, r2) = st["sites"], st["supervisors"]

        def fdl_doc(F, e):
            doc = F.FdlDocument()
            doc.alphabets["E"] = alphabet
            doc.languages["CL"] = e["achieved"]
            doc.supervisors.update(S1=e["synthesized"][0], S2=e["synthesized"][1])
            return doc

        return [
            ("plant", lambda F, e: F.generated_language(st["aut"], inst.automaton.horizon)),
            ("spec", lambda F, e: F.build_language(alphabet, inst.spec)),
            ("loop", lambda F, e: F.closed_loop_decentralized(e["plant"], r1, r2)),
            ("controllable", lambda F, e: F.is_controllable(e["loop"], e["plant"])),
            ("coobservable", lambda F, e: F.is_coobservable(e["loop"], e["plant"], s1, s2)),
            ("spec_coobservable", lambda F, e: F.is_coobservable(e["spec"], e["plant"], s1, s2)),
            ("synthesized", lambda F, e: F.synthesize_decentralized(e["loop"], e["plant"], s1, s2)),
            ("achieved", lambda F, e: F.closed_loop_decentralized(e["plant"], *e["synthesized"])),
            ("doc", fdl_doc),
            ("text", lambda F, e: F.emit_fdl(e["doc"])),
            ("parsed", lambda F, e: F.parse_fdl(e["text"])),
        ]

    def canonical(self, e) -> str:
        return e["text"]

    def cli_args(self, st) -> list[str]:
        f = st["files"]
        return ["synthesize", "--mode", "decentralized", "--plant", str(f["plant"]),
                "--spec", str(f["loop"]), "--sites", str(f["sites"])]

    def check(self, F, st, e, problems: Problems) -> None:
        inst, loop = st["inst"], st["loop"]
        unc = sorted(set(inst.events) - set(inst.controllable))
        sites = [(frozenset(s["observable"]), frozenset(s["controllable"])) for s in inst.sites]
        check_plant(problems, inst, e["plant"], st["seed"])
        problems.check(table(e["spec"]) == inst.spec, "spec differs from its entries")
        problems.check(table(e["loop"]) == loop, "closed loop of the seeded supervisor pair")
        problems.check(loop != inst.plant, "seeded supervisors restrict the plant")
        check_report(problems, "controllable", e["controllable"], C.controllable(loop, inst.plant, unc), True)
        problems.check(e["controllable"].holds, "a closed loop is controllable")
        violations = C.coobservable(loop, inst.plant, sites)
        check_report(problems, "co-observable", e["coobservable"], violations, False)
        problems.check(e["coobservable"].holds, "a closed loop is co-observable")
        violations = C.coobservable(inst.spec, inst.plant, sites)
        check_report(problems, "spec co-observable", e["spec_coobservable"], violations, False)
        problems.check(e["spec_coobservable"].witnesses, "the seeded spec is not co-observable")
        pair = [supervisor_rows(s) for s in e["synthesized"]]
        problems.check(C.closed_loop(inst.plant, pair) == loop, "local supervisors reproduce the closed loop")
        problems.check(table(e["achieved"]) == loop, "closed_loop_decentralized of the synthesized pair")
        check_fdl(problems, e["doc"], e["parsed"])

    def check_cli(self, F, st, e, code: int, stdout: str, problems: Problems) -> None:
        problems.check(code == 0, f"synthesize exit code {code}")
        doc = F.parse_fdl(stdout)
        pair = [supervisor_rows(doc.supervisors[n]) for n in ("S1", "S2")]
        problems.check(C.closed_loop(st["inst"].plant, pair) == st["loop"], "synthesize output achieves the loop")


# ---------------------------------------------------------------------------
# small-batch: every subcommand on desk-scale inputs, in process.


TEST_DATA = (
    ("central", "central_plant.fdl", "central_spec.fdl", None),
    ("union", "union_plant.fdl", "union_spec.fdl", None),
    ("medical", "medical.fdl", "medical.fdl", "medical.fdl"),
)


def _capture(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code == 2:
        raise RuntimeError(f"fdes {' '.join(argv)}: {err.getvalue().strip()}")
    return code, out.getvalue()


class SmallBatch:
    name = "small-batch"
    cli_runs, min_rounds = 3, 2  # a command takes about 0.1 s: more samples
    why = ("per-command overhead: every subcommand in process on tests/data and "
           "desk-scale seeded instances, where the fixed points do almost nothing")

    def setup(self, F, seed: int, workdir: Path):
        root = Path(__file__).resolve().parent.parent
        cases = []
        for name, plant_file, spec_file, sites_file in TEST_DATA:
            data = root / "tests" / "data"
            doc = F.fdl.parse_documents([(str(data / f), (data / f).read_text()) for f in {plant_file, spec_file}])
            plant_name = F.fdl.section_names("p", (data / plant_file).read_text(), "language")[0]
            spec_name = F.fdl.section_names("s", (data / spec_file).read_text(), "language")[0]
            plant, spec = doc.languages[plant_name], doc.languages[spec_name]
            al = plant.alphabet
            sites = None
            if sites_file:
                _, decl = doc.single("sites")
                sites = [{"controllable": tuple(sorted(s.controllable)), "observable": tuple(sorted(s.observable))}
                         for s in (decl.site1, decl.site2)]
            inst = I.Instance(name, tuple(sorted(al.events)), tuple(sorted(al.controllable)),
                              tuple(sorted(al.observable)), table(plant), table(spec), sites=sites)
            files = {"plant": data / plant_file, "spec": data / spec_file}
            if sites_file:
                files["sites"] = data / sites_file
            cases.append(self._case(inst, files, workdir / name))
        for inst in I.desk_batch(seed):
            folder = workdir / inst.name
            folder.mkdir(parents=True, exist_ok=True)
            head = instance_alphabet(inst)
            files = {"plant": folder / "plant.fdl", "spec": folder / "spec.fdl",
                     "sites": folder / "sites.fdl", "aut": folder / "aut.fdl"}
            files["plant"].write_text(head + fdl_language("L", inst.plant))
            files["spec"].write_text(head + fdl_language("K", inst.spec))
            files["sites"].write_text(head + fdl_sites("T", inst.sites))
            files["aut"].write_text(head + fdl_automaton("A", inst.automaton))
            cases.append(self._case(inst, files, folder))
        return dict(cases=cases, seed=seed, first=cases[len(TEST_DATA)])

    def _case(self, inst, files, folder: Path) -> dict:
        folder.mkdir(parents=True, exist_ok=True)
        p, s = str(files["plant"]), str(files["spec"])
        out_s, out_s12 = str(folder / "S.fdl"), str(folder / "S12.fdl")
        probe = max(inst.plant, key=lambda t: (len(t), t))
        commands = [("validate", ["validate", p, s] + ([str(files["sites"])] if "sites" in files else []))]
        for prop, extra in (("controllable", []), ("observable", ["--json"]),
                            ("strongly-observable", []), ("normal", ["--json"])):
            commands.append((f"check:{prop}", ["check", "--property", prop, "--plant", p, "--spec", s] + extra))
        commands += [
            ("synthesize", ["synthesize", "--mode", "central", "--plant", p, "--spec", s]),
            ("synthesize-force", ["synthesize", "--mode", "central", "--plant", p, "--spec", s,
                                  "--force", "--out", out_s]),
            ("closed-loop", ["closed-loop", "--plant", p, "--supervisor", out_s]),
        ]
        if "sites" in files:
            t = str(files["sites"])
            commands += [
                ("check:coobservable", ["check", "--property", "coobservable", "--plant", p, "--spec", s,
                                        "--sites", t]),
                ("synthesize-decentralized", ["synthesize", "--mode", "decentralized", "--plant", p,
                                              "--spec", s, "--sites", t, "--force", "--out", out_s12]),
                ("closed-loop-decentralized", ["closed-loop", "--plant", p, "--supervisor", out_s12]),
            ]
        commands += [
            ("infimal-co", ["infimal-co", "--plant", p, "--spec", s]),
            ("supremal-cn", ["supremal-cn", "--plant", p, "--spec", s]),
            ("scp", ["scp", "--plant", p, "--min", s, "--max", s]),
            ("lang:union", ["lang", "--op", "union", p, s]),
            ("lang:intersect", ["lang", "--op", "intersect", p, s]),
            ("lang:concat", ["lang", "--op", "concat", p, s]),
            ("lang:sublanguage", ["lang", "--op", "sublanguage", s, p]),
            ("lang:project", ["lang", "--op", "project", p]),
            ("lang:grade", ["lang", "--op", "grade", p, "--string", render_string(probe)]),
        ]
        if "aut" in files:
            commands.append(("gen", ["gen", "--plant", str(files["aut"]), "--horizon", "3"]))
        return dict(inst=inst, files=files, commands=commands, out_s=out_s, out_s12=out_s12, probe=probe)

    def steps(self, st) -> list:
        steps = []
        for case in st["cases"]:
            for kind, argv in case["commands"]:
                steps.append((f"{case['inst'].name}/{kind}",
                              lambda F, e, argv=argv: _capture(F.cli.run_command, argv)))
        return steps

    def canonical(self, e) -> str:
        return "".join(out for _, out in e.values())

    def cli_args(self, st) -> list[str]:
        return dict(st["first"]["commands"])["check:observable"]

    def check(self, F, st, e, problems: Problems) -> None:
        for case in st["cases"]:
            self._check_case(F, case, e, problems)

    def _check_case(self, F, case, e, problems: Problems) -> None:
        inst = case["inst"]
        plant, spec = inst.plant, inst.spec
        seen, ctrl = frozenset(inst.observable), sorted(inst.controllable)
        unc = sorted(set(inst.events) - set(inst.controllable))
        alphabet, pr, _ = library_model(F, inst)
        lib_plant, lib_spec = F.build_language(alphabet, plant), F.build_language(alphabet, spec)
        verdicts = {
            "controllable": not C.controllable(spec, plant, unc),
            "observable": not C.observable(spec, plant, seen, ctrl),
            "strongly-observable": not C.strongly_observable(spec, plant, seen, ctrl),
            "normal": not C.normal(spec, plant, seen),
        }
        if inst.sites:
            plain = [(frozenset(s["observable"]), frozenset(s["controllable"])) for s in inst.sites]
            verdicts["coobservable"] = not C.coobservable(spec, plant, plain)
        infimal = table(F.infimal_co(lib_spec, lib_plant, pr))
        supremal = table(F.supremal_cn(lib_spec, lib_plant, pr))
        lattice = len({*plant.values(), *spec.values(), ZERO, Fraction(1)})
        if lattice ** len(plant) <= F.oracle.DEFAULT_BUDGET:
            problems.check(table(F.oracle.brute_infimal_co(lib_spec, lib_plant, pr)) == infimal,
                           f"{inst.name}: infimal_co equals the brute-force oracle")
        if lattice ** len(spec) <= F.oracle.DEFAULT_BUDGET:
            problems.check(table(F.oracle.brute_supremal_cn(lib_spec, lib_plant, pr)) == supremal,
                           f"{inst.name}: supremal_cn equals the brute-force oracle")
        problems.check(not C.below(spec, infimal) and not C.below(infimal, plant)
                       and not C.controllable(infimal, plant, unc)
                       and not C.observable(infimal, plant, seen, ctrl), f"{inst.name}: infimal properties")
        problems.check(not C.below(supremal, spec) and not C.controllable(supremal, plant, unc)
                       and not C.normal(supremal, plant, seen), f"{inst.name}: supremal properties")

        def language(stdout: str, name: str) -> dict:
            return table(F.parse_fdl(stdout).languages[name])

        def supervisors(path: str) -> list:
            doc = F.parse_fdl(Path(path).read_text())
            return [supervisor_rows(doc.supervisors[n]) for n in sorted(doc.supervisors)]

        for kind, argv in case["commands"]:
            key = f"{inst.name}/{kind}"
            if key not in e:
                continue
            code, out = e[key]
            where = f"{key}: "
            if kind == "validate":
                problems.check(code == 0 and out.endswith("ok\n"), where + "validate")
            elif kind.startswith("check:"):
                prop = kind.split(":", 1)[1]
                holds = verdicts[prop]
                problems.check(code == (0 if holds else 1), where + "exit code")
                if "--json" in argv:
                    problems.check(json.loads(out)["holds"] == holds, where + "json verdict")
                else:
                    problems.check(out.startswith(f"check {prop}: {'holds' if holds else 'fails'}\n"),
                                   where + "verdict")
            elif kind == "synthesize":
                achievable = verdicts["controllable"] and verdicts["observable"] and bool(spec)
                problems.check(code == (0 if achievable else 1), where + "exit code")
                if achievable:
                    sup = supervisor_rows(F.parse_fdl(out).supervisors["S"])
                    problems.check(C.closed_loop(plant, [sup]) == spec, where + "supervisor achieves the spec")
            elif kind == "synthesize-force":
                expect = F.synthesize_central(lib_spec, lib_plant, pr, force=True)
                problems.check(code == 0 and supervisors(case["out_s"]) == [supervisor_rows(expect)],
                               where + "forced supervisor")
            elif kind == "closed-loop":
                problems.check(language(out, "closed_loop") == C.closed_loop(plant, supervisors(case["out_s"])),
                               where + "closed loop")
            elif kind == "synthesize-decentralized":
                problems.check(code == 0 and len(supervisors(case["out_s12"])) == 2, where + "supervisor pair")
            elif kind == "closed-loop-decentralized":
                problems.check(language(out, "closed_loop") == C.closed_loop(plant, supervisors(case["out_s12"])),
                               where + "closed loop")
            elif kind == "infimal-co":
                problems.check(language(out, "infimal_co") == infimal, where + "infimal_co")
            elif kind == "supremal-cn":
                problems.check(language(out, "supremal_cn") == supremal, where + "supremal_cn")
            elif kind == "scp":
                solvable = not C.below(infimal, spec)
                problems.check(code == (0 if solvable else 1), where + "exit code")
                problems.check(out.startswith("scp: solvable\n" if solvable else "scp: no solution"),
                               where + "verdict")
            elif kind == "lang:union":
                problems.check(language(out, "result") == C.union(plant, spec), where + "union")
            elif kind == "lang:intersect":
                problems.check(language(out, "result") == C.intersection(plant, spec), where + "intersection")
            elif kind == "lang:concat":
                problems.check(language(out, "result") == C.concatenation(plant, spec), where + "concatenation")
            elif kind == "lang:sublanguage":
                problems.check(code == 0 and out == "true\n", where + "spec <= plant")
            elif kind == "lang:project":
                problems.check(language(out, "result") == C.projection(plant, seen), where + "projection")
            elif kind == "lang:grade":
                problems.check(F.parse_grade(out.strip()) == plant[case["probe"]], where + "grade")
            elif kind == "gen":
                problems.check(language(out, "generated") == I.maxmin_language(inst.automaton, inst.events),
                               where + "generated language")

    def check_cli(self, F, st, e, code: int, stdout: str, problems: Problems) -> None:
        key = f"{st['first']['inst'].name}/check:observable"
        problems.check((code, stdout) == e[key], "fresh-process check matches the in-process run")


WORKLOADS = {
    w.name: w
    for w in (
        Central("cyclic-plant",
                "raising and lowering fixed points over a 10k-string cyclic plant with many small "
                "projection classes, plus large-file FDL parsing",
                I.cyclic_plant, "scp", cli_runs=1, min_rounds=2),
        Central("blind-tree",
                "eight huge projection classes (up to 1,023 strings) make the supremal class-join "
                "work quadratic",
                # One supremal_cn call is most of a pass: a third round
                # steadies its mean.
                I.blind_tree, "infimal-co", cli_runs=3, min_rounds=3),
        TwoSite(),
        SmallBatch(),
    )
}
