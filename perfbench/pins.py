"""Expected outputs of the seed code, which every run is checked against.

The census digests are md5 over the CSV file; a verify entry is the exit
code and the full text ``kummer verify`` prints.  ``exceptional`` is
expected to exit 1: (4,5,5) and (4,30,5) are Unknown outside the excluded
set and (4,20,5) is the permitted discrepancy.
"""

# The five suites on the verify workload, run through cli.main: divisibility
# (its default bound 3), connectedness and witnesses at ROADMAP's sizes;
# nonemptiness and exceptional below them (their cost grows faster than d),
# so that every suite repeats about ten times in a run.
VERIFY_FULL = (
    ("divisibility", 3),
    ("connectedness", 5000),
    ("nonemptiness", 400),
    ("witnesses", 5000),
    ("exceptional", 1000),
)

# The same suites at probe size on the other workloads, run through the
# census suite functions (divisibility's bound is not a CLI option).
VERIFY_PROBE = (
    ("divisibility", 2),
    ("connectedness", 1000),
    ("nonemptiness", 100),
    ("witnesses", 1000),
    ("exceptional", 500),
)

# d_max -> md5 of `kummer census 2 3 4 --d-max D --format csv`
CENSUS_MD5 = {
    5000: '3f55375e05e52ed6c89c1246d0b08fa1',
    200: '5e8db4b62d954d879cee95943c64e59f',
}

# result of ops.reference_work(), the host-speed reference step
REFERENCE_RESULT = 736730

# (seed, number of queries) -> sha256 of the answers (see ops.answers_digest)
COUNT_DIGEST = {
    (7, 20000): '5f29bbfca6710db3dadd345ae934d7d1e0254d6e38bfb508fb266ab9110cd098',
    (7, 2000): '348207dec789c97f00e6867ecd8346db9a60f3412b8660977a8ccf0105c65e9f',
}


def _violations(what: str, bound: int) -> str:
    return "".join(f"n={n} {what.format(bound)}: 0 violation(s)\n" for n in (2, 3, 4))


def _exceptional(d_max: int) -> tuple[int, str]:
    return (
        1,
        f'census n in {{2,3,4}}, d <= {d_max}\n'
        'unknown triples: [(2, 1, 2), (3, 4, 2), (3, 28, 8), (3, 92, 8), (4, 3, 2), (4, 5, 5), (4, 30, 5), (4, 55, 10)]\n'
        'expected exclusions in range: [(2, 1, 2), (3, 4, 2), (3, 28, 8), (3, 92, 8), (4, 3, 2), (4, 20, 5), (4, 55, 10)]\n'
        '  DISCREPANCY (4, 20, 5): excluded but certified (reported, permitted)\n'
        '  VIOLATION (4, 5, 5): Unknown but not in the excluded set\n'
        '  VIOLATION (4, 30, 5): Unknown but not in the excluded set\n'
        'exceptional: FAIL\n',
    )


# (suite, size) -> (exit code, text)
VERIFY = {
    ('divisibility', 3): (
        0,
        'n=2 coord_bound=3: 0 mismatch(es)\n'
        'n=3 coord_bound=3: 0 mismatch(es)\n'
        'n=4 coord_bound=3: 0 mismatch(es)\n'
        'divisibility: PASS\n',
    ),
    ('divisibility', 2): (
        0,
        'n=2 coord_bound=2: 0 mismatch(es)\n'
        'n=3 coord_bound=2: 0 mismatch(es)\n'
        'n=4 coord_bound=2: 0 mismatch(es)\n'
        'divisibility: PASS\n',
    ),
    ('connectedness', 5000): (0, _violations('d<={}', 5000) + 'connectedness: PASS\n'),
    ('connectedness', 1000): (0, _violations('d<={}', 1000) + 'connectedness: PASS\n'),
    ('nonemptiness', 400): (0, _violations('d<={}', 400) + 'nonemptiness: PASS\n'),
    ('nonemptiness', 100): (0, _violations('d<={}', 100) + 'nonemptiness: PASS\n'),
    ('witnesses', 5000): (
        0,
        'checked 5411 non-empty triples with t >= 2, d <= 5000\n'
        'witnesses: PASS\n',
    ),
    ('witnesses', 1000): (
        0,
        'checked 1081 non-empty triples with t >= 2, d <= 1000\n'
        'witnesses: PASS\n',
    ),
    ('exceptional', 1000): _exceptional(1000),
    ('exceptional', 500): _exceptional(500),
}

# cold-start probes for setup_s: code run in a fresh interpreter -> its output
SETUP = {
    "census": (
        "from kummer_moduli import cli; cli.main(['census', '2', '--d-max', '1'])",
        "n,d,t,nonempty,components,c_L,c_delta,d_hat,verdict,certificate,in_A,discrepancy\n"
        "2,1,1,true,1,,,,GenericBPF,DivisibilityOne,false,false\n"
        "2,1,2,true,1,2,-1,1,Unknown,,true,false\n"
        "2,1,3,false,0,,,,Empty,,false,false\n"
        "2,1,6,false,0,,,,Empty,,false,false\n",
    ),
    "count": (
        "from kummer_moduli import component_count; print(component_count(2, 6, 3))",
        "CountResult(count=1, case_tag='1a')\n",
    ),
    "verify": (
        "from kummer_moduli import suite_divisibility; print(suite_divisibility(coord_bound=1))",
        "SuiteResult(name='divisibility', passed=True, lines=("
        "'n=2 coord_bound=1: 0 mismatch(es)', 'n=3 coord_bound=1: 0 mismatch(es)', "
        "'n=4 coord_bound=1: 0 mismatch(es)'))\n",
    ),
}
