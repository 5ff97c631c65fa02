"""Source rules: no check may live in an ``assert`` statement, because
``python -O`` strips them; the two sides of a hierarchy case stay
independent evaluators (the Bailey generator names neither left side, nor
the row builder both of them reach, nor its level stacks), no side
compared with one that sums through the binomial-product kernel (the
S-ladder, trinomial and theta-type binomial right sides) sums through it
too, no hierarchy right side through the left sides' packed pass or their
tables, and no S-ladder or trinomial right side through the left sides'
packed M-sum, which keeps its own packs; the finite
left sides reach no right-side sum; the Bailey transform takes its
quotients from poch_ratio, not from the left sides' stepped ones;
``IdentityCase`` stays a dataclass and is the only one, so no other class
generates its methods' code at import; the half-limb constant of signed
limbs lives only in the series module; the partition oracle
imports nothing from qcap; the CLI builds no parser at import and names
neither ``verify_case`` nor ``iterate_grid``, so the order in which the
verify grid is evaluated lives in ``identities.verify_grid`` alone; and
every top-level function or class, and every method or property of a class,
is used by the package or is an entry point."""

import ast
import dataclasses
from pathlib import Path

import qcap
from qcap.identities import CASES, IdentityCase

PACKAGE = Path(qcap.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _tree(name):
    path = PACKAGE / name
    return ast.parse(path.read_text(), str(path))


def test_identities_imports_nothing_from_bailey():
    found = []
    for node in ast.walk(_tree("identities.py")):
        if isinstance(node, ast.ImportFrom):
            if node.module == "qcap.bailey" or (
                    node.module in ("qcap", None) and any(a.name == "bailey" for a in node.names)):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name == "qcap.bailey" for a in node.names):
                found.append(node.lineno)
    assert not found, found


def _names_in(tree):
    """Every name a module's AST holds as a Name, an Attribute or an import
    alias."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


# The tables the finite hierarchy left sides read: the chain tails and the
# chain rows of the L last read, and the seeds' residue classes, packed per
# limb width.
LEFT_TABLES = {"_chain_tails", "_chain_rows", "_seed_classes"}
# What the generator, the cross-oracle of the directly expanded multi-sums,
# must not name.
DIRECT_EXPANSION = {"hierarchy_finite_lhs", "hierarchy_limit_lhs", "hierarchy_chain_exponent",
                    "index_vectors", "suffix_sums", "_level_up", "_rows", "_chain_levels",
                    "_limit_levels"} | LEFT_TABLES


def test_bailey_names_no_direct_expansion_helper():
    found = sorted(_names_in(_tree("bailey.py")) & DIRECT_EXPANSION)
    assert not found, found


def test_bailey_rule_sees_the_left_tables():
    # the names it bans are the ones the direct expansion uses
    assert LEFT_TABLES <= _names_in(_tree("identities.py"))
    assert _names_in(ast.parse("from qcap.identities import _chain_tails\n"
                               "x = identities._seed_classes\n"
                               "y = _chain_rows(0, 1, 0, 2)\n")) >= LEFT_TABLES


def test_bailey_rule_sees_the_row_builder():
    # the banned builder and stacks are the ones both left sides reach
    tree = _tree("identities.py")
    assert {"_rows", "_limit_levels"} <= {top.name for top in tree.body
                                          if isinstance(top, ast.FunctionDef)}
    for side in ("hierarchy_finite_lhs", "hierarchy_limit_lhs"):
        assert "_rows" in _names_reached(tree, side), side


# The stepped Pochhammer quotients of the left sides: the step and its two
# factor operations, and the tables and term walk that step.
STEPPED = {"_poch_step", "_times_one_minus", "_div_one_minus", "_chain_tails", "_base1_sum",
           "_base3_seeds"}


def test_bailey_transform_does_not_reach_the_stepped_quotients():
    # the Bailey lemma's left-hand side transform, the generator's own
    # evaluator, takes each quotient from poch_ratio
    found = sorted(_names_reached(_tree("bailey.py"), "bailey_lhs_transform") & STEPPED)
    assert not found, found


def test_stepped_rule_sees_both_sides():
    assert "poch_ratio" in _names_reached(_tree("bailey.py"), "bailey_lhs_transform")
    tree = _tree("identities.py")
    assert "_poch_step" in _names_reached(tree, "hierarchy_finite_lhs")
    assert STEPPED - {"_times_one_minus", "_div_one_minus"} <= _names_in(tree)


# The kernel the S-ladder, trinomial and theta-type binomial right sides sum
# through, and the term lists that feed it.
KERNEL = {"binomial_product_sum", "warnaar_s", "trinomial_t", "binomial_sum"}
# Every side a case compares with one that sums through the kernel.
KERNEL_FREE_SIDES = ("refinement_hierarchy_lhs",
                     "refinement_limit_lhs", "roundtri_lhs", "hierarchy_finite_lhs",
                     "seed_cap1_binomial", "seed_cap2_binomial", "seed_sum_cap",
                     "seed_cap1", "seed_cap2", "cor_cap2_analogue_lhs",
                     "rhs_rewrite_split", "rhs_rewrite_rational", "dual_lhs")


def _names_reached(tree, function):
    """Every name that a top-level function names, or that a top-level
    function of the same module it names (and so on) names."""
    bodies = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    seen, todo, names = set(), [function], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(bodies[fn]):
            if isinstance(node, ast.Name):
                names.add(node.id)
                if node.id in bodies:
                    todo.append(node.id)
    return names


def test_left_sides_do_not_reach_the_right_side_kernel():
    # the two sides of seed_identity, s_hierarchy, fin_cap_roundtri_*, the
    # finite hierarchies and the cases with a binomial_sum side must not
    # share the kernel that sums the right sides
    tree = _tree("identities.py")
    found = {side: sorted(_names_reached(tree, side) & KERNEL) for side in KERNEL_FREE_SIDES}
    assert not any(found.values()), found


def test_kernel_rule_sees_the_right_sides():
    tree = _tree("identities.py")
    assert "binomial_product_sum" in _names_reached(tree, "refinement_hierarchy_rhs")
    assert "trinomial_t" in _names_reached(tree, "roundtri_rhs")
    assert "binomial_product_sum" in _names_reached(tree, "binomial_sum")
    assert "binomial_sum" in _names_reached(tree, "hierarchy_finite_rhs")
    # t4 is a local of _m_sum, which refinement_hierarchy_lhs, the seed
    # identity's left side at nu = 0, calls
    assert "t4" in _names_reached(tree, "refinement_hierarchy_lhs")


# The packed chain-times-seed pass of the finite and limit hierarchy left
# sides, and the sides compared with them.
PACKED_PASS = "stretched_product_sum"
PASS_FREE_SIDES = ("hierarchy_finite_rhs", "alpha_sum", "binomial_sum", "hierarchy_limit_rhs",
                   "refinement_limit_lhs")


def test_hierarchy_right_sides_do_not_reach_the_packed_pass():
    # the two sides of each hierarchy_finite and hierarchy_limit case, of
    # s_hierarchy_limit and of corollary_transform stay independent
    tree = _tree("identities.py")
    found = [side for side in PASS_FREE_SIDES if PACKED_PASS in _names_reached(tree, side)]
    assert not found, found


def test_packed_pass_rule_sees_the_left_side():
    tree = _tree("identities.py")
    for side in ("hierarchy_finite_lhs", "hierarchy_limit_lhs"):
        assert PACKED_PASS in _names_reached(tree, side), side


def test_hierarchy_right_sides_do_not_reach_the_left_tables():
    tree = _tree("identities.py")
    found = {side: sorted(_names_reached(tree, side) & LEFT_TABLES) for side in PASS_FREE_SIDES}
    assert not any(found.values()), found


def test_left_table_rule_sees_the_left_side():
    tree = _tree("identities.py")
    assert LEFT_TABLES <= _names_reached(tree, "hierarchy_finite_lhs")
    # the limit side's chains are its own, its seed classes the finite side's
    assert "_seed_classes" in _names_reached(tree, "hierarchy_limit_lhs")


# The sums of the theta-type right sides of the finite hierarchies and the
# seed identities.
RIGHT_SUMS = {"rhs_new_fin_cap", "alpha_sum"}


def test_hierarchy_left_side_does_not_reach_the_right_sums():
    found = sorted(_names_reached(_tree("identities.py"), "hierarchy_finite_lhs") & RIGHT_SUMS)
    assert not found, found


def test_right_sum_rule_sees_the_right_sides():
    tree = _tree("identities.py")
    assert "alpha_sum" in _names_reached(tree, "hierarchy_finite_rhs")
    assert "rhs_new_fin_cap" in _names_reached(tree, "dual_construct")


def _dataclasses(tree):
    """The names of the classes that a module decorates with dataclass, bare
    or called, by name or as an attribute."""
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for decorator in node.decorator_list
            for target in [decorator.func if isinstance(decorator, ast.Call) else decorator]
            if getattr(target, "id", getattr(target, "attr", None)) == "dataclass"]


def test_only_identity_case_is_a_dataclass():
    # each @dataclass generates and compiles its methods' code at import; the
    # value types are slotted classes or NamedTuples
    found = {path.name: _dataclasses(_tree(path.name)) for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for names in found.values() for name in names] == ["IdentityCase"], found


def test_dataclass_rule_sees_every_spelling():
    tree = ast.parse("@dataclass\nclass A:\n    pass\n\n"
                     "@dataclass(frozen=True)\nclass B:\n    pass\n\n"
                     "@functools.total_ordering\n@dataclasses.dataclass(slots=True)\n"
                     "class C:\n    pass\n\n"
                     "class D(NamedTuple):\n    x: int\n\n"
                     "@cache\ndef dataclass():\n    pass\n")
    assert _dataclasses(tree) == ["A", "B", "C"]


def test_identity_case_stays_a_dataclass():
    # the benchmark's tracer rebuilds each case with dataclasses.replace
    assert dataclasses.is_dataclass(IdentityCase)
    case = CASES["new_fin_cap_1"]
    assert dataclasses.replace(case, sides=case.sides[:1]).sides == case.sides[:1]


# The packed M-sum of the S-ladder and seed-identity left sides.
M_SUM_PASS = "_bounded_binomial_sum"
M_SUM_FREE_SIDES = ("refinement_hierarchy_rhs", "roundtri_rhs")


def test_right_sides_do_not_reach_the_m_sum_pass():
    # the two sides of s_hierarchy, seed_identity and fin_cap_roundtri_*
    # stay independent
    tree = _tree("identities.py")
    found = [side for side in M_SUM_FREE_SIDES if M_SUM_PASS in _names_reached(tree, side)]
    assert not found, found


def test_m_sum_pass_rule_sees_the_left_sides():
    tree = _tree("identities.py")
    # at nu = 0 it is the seed identity's left side
    assert M_SUM_PASS in _names_reached(tree, "refinement_hierarchy_lhs")


def test_m_sum_pass_keeps_its_own_packs():
    # the S-ladder left side packs its binomials in its own table, so no
    # packed value is shared with the right side's pass
    assert "_binomial_record" not in _names_reached(_tree("identities.py"), M_SUM_PASS)
    assert "_binomial_record" in _names_reached(_tree("qcombinat.py"), "binomial_product_sum")


def _half_limb_constants(tree):
    """Line numbers of bytes constants holding a 0x80 byte: the half-limb
    bias of signed limbs."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, bytes)
            and 0x80 in node.value]


def test_half_limb_constant_lives_only_in_series():
    # signed limbs apply their bias in series._Limbs and nowhere else
    found = {path.name: _half_limb_constants(_tree(path.name))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "series.py"}
    assert not any(found.values()), found
    assert _half_limb_constants(_tree("series.py"))


def _imports_from_qcap(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "qcap":
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "qcap" for a in node.names):
                found.append(node.lineno)
    return found


def test_partition_oracle_imports_nothing_from_qcap():
    # the oracle checks the series engine's generating functions, so it must
    # not be built from that engine
    assert not _imports_from_qcap(_tree("partitions.py"))


def test_import_rule_sees_qcap_imports():
    tree = ast.parse("import qcap.series\nfrom qcap import series\n"
                     "from . import series\nimport csv\nfrom typing import Callable\n")
    assert _imports_from_qcap(tree) == [1, 2, 3]


def _import_time_calls(tree):
    """The names of the functions a module calls while it is imported: every
    call outside the body of a function or lambda."""
    names, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += [*getattr(node, "decorator_list", ()), *node.args.defaults,
                     *filter(None, node.args.kw_defaults)]
            continue
        if isinstance(node, ast.Call):
            names.append(getattr(node.func, "id", getattr(node.func, "attr", None)))
        todo += ast.iter_child_nodes(node)
    return names


PARSER_BUILDERS = {"build_parser", "ArgumentParser"}


def test_cli_builds_no_parser_at_import():
    # main builds the parser on its first call; built at import, it would
    # cost every import of the CLI module, also one that parses nothing
    assert not PARSER_BUILDERS & set(_import_time_calls(_tree("cli.py")))


def test_parser_rule_sees_a_module_level_parser():
    assert "build_parser" in _import_time_calls(ast.parse("PARSER = build_parser()\n"))
    assert "ArgumentParser" in _import_time_calls(
        ast.parse("class C:\n    p = argparse.ArgumentParser()\n"))
    assert "build_parser" in _import_time_calls(
        ast.parse("def main(p=build_parser()):\n    pass\n"))
    assert not PARSER_BUILDERS & set(_import_time_calls(ast.parse(
        "def main():\n    return build_parser()\n\nf = lambda: argparse.ArgumentParser()\n")))


# What the CLI must not name: the grid and its evaluation order belong to
# identities.verify_grid.
GRID_ORDER = {"verify_case", "iterate_grid"}


def test_cli_leaves_the_grid_order_to_identities():
    found = sorted(_names_in(_tree("cli.py")) & GRID_ORDER)
    assert not found, found


def test_grid_order_rule_sees_every_spelling():
    tree = ast.parse("from qcap.identities import iterate_grid\n"
                     "r = identities.verify_case(c, p)\n")
    assert _names_in(tree) >= GRID_ORDER
    assert "verify_grid" in _names_in(_tree("cli.py"))


# Entry points the acceptance gate and the benchmark call, which no module of
# the package names.
PUBLIC = (
    "verify_bailey_theorem", "checkpoint_first_application",
    "checkpoint_after_k_transform", "generate_hierarchy_lhs",
    "q_binomial_theorem_sides", "verify_catalog", "verify_factor_witness",
    "verify_initial_condition_argument", "perturbed", "in_class_c",
    "in_class_d",
    # the partition oracle's brute-force reference, which the tests and the
    # benchmark's tracer call
    "partitions",
)


def _module_aliases(tree, modules):
    """The names that `from qcap import ...` binds to a module of the package."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "qcap"
            for alias in node.names if alias.name in modules}


def _unnamed_definitions(trees):
    """Top-level defs and classes that no module names as a Name, an
    Attribute or an import alias, outside their own body.  A name bound to a
    module of the package names no definition: with `from qcap import x`,
    neither the alias nor the x of `x.y` names a function x."""
    defined, named = {}, set()
    modules = {module.removesuffix(".py") for module in trees}
    for module, tree in trees.items():
        aliases = _module_aliases(tree, modules)
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                defined[own] = module
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id not in aliases:
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias) and (node.asname or node.name) not in aliases:
                    name = node.name
                else:
                    continue
                if name != own:
                    named.add(name)
    return sorted(f"{module}:{name}" for name, module in defined.items()
                  if name not in named)


def _package_unnamed():
    return _unnamed_definitions(
        {path.name: _tree(path.name) for path in sorted(PACKAGE.glob("*.py"))})


def test_every_definition_is_used_or_public():
    unused = [d for d in _package_unnamed() if d.partition(":")[2] not in PUBLIC]
    assert not unused, unused


def test_public_names_are_defined_and_otherwise_unused():
    # a PUBLIC entry that the package names, or that is gone, is stale
    stale = set(PUBLIC) - {d.partition(":")[2] for d in _package_unnamed()}
    assert not stale, sorted(stale)


def test_usage_rule_ignores_self_reference():
    trees = {"m.py": ast.parse(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n")}
    assert _unnamed_definitions(trees) == ["m.py:recursive"]


def test_usage_rule_ignores_module_aliases():
    # m imports the module x and calls x.y; x's function x is named nowhere
    trees = {"x.py": ast.parse("def x():\n    return 0\n\ndef y():\n    return 1\n"),
             "m.py": ast.parse("from qcap import x\n\ndef main():\n    return x.y()\n")}
    assert _unnamed_definitions(trees) == ["m.py:main", "x.py:x"]


# Members the benchmark reads, which no module of the package reads.
PUBLIC_MEMBERS = ("ok",)


def _unread_members(trees):
    """Non-dunder methods and properties of top-level classes whose name no
    module reads as an attribute, outside their own body."""
    defined, read = {}, set()
    for module, tree in trees.items():
        for top in tree.body:
            is_class = isinstance(top, ast.ClassDef)
            for node in top.body if is_class else [top]:
                own = None
                if is_class and isinstance(node, ast.FunctionDef) and not (
                        node.name.startswith("__") and node.name.endswith("__")):
                    own = node.name
                    defined[f"{module}:{top.name}.{own}"] = own
                read.update(n.attr for n in ast.walk(node)
                            if isinstance(n, ast.Attribute) and n.attr != own)
    return sorted(member for member, name in defined.items() if name not in read)


def _package_unread_members():
    return _unread_members(
        {path.name: _tree(path.name) for path in sorted(PACKAGE.glob("*.py"))})


def test_every_member_is_read_or_public():
    unread = [m for m in _package_unread_members()
              if m.rpartition(".")[2] not in PUBLIC_MEMBERS]
    assert not unread, unread


def test_public_members_are_defined_and_otherwise_unread():
    # a PUBLIC_MEMBERS entry that the package reads, or that is gone, is stale
    stale = set(PUBLIC_MEMBERS) - {m.rpartition(".")[2] for m in _package_unread_members()}
    assert not stale, sorted(stale)


def test_member_rule_ignores_self_reads_and_dunders():
    trees = {"m.py": ast.parse(
        "class C:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
        "    @property\n    def unread(self):\n        return self.used()\n")}
    assert _unread_members(trees) == ["m.py:C.recursive", "m.py:C.unread"]
