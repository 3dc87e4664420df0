"""Parameterized structural circuit generators.

These families stand in for the MCNC91/ISCAS85 suites (see DESIGN.md's
substitution table) and include every class the paper names as known
k-bounded or practically interesting: ripple-carry adders, decoders,
one- and two-dimensional cellular arrays (Section 3.2), plus the families
dominating the real suites — carry-lookahead adders, array multipliers
(the c6288 structure), ALU/comparator logic, parity and mux trees.

All generators return plain :class:`Network` objects over the extended
gate alphabet; run :func:`repro.circuits.tech_decompose` to obtain the
paper's ≤3-input AND/OR/INV form.
"""

from __future__ import annotations

from repro.circuits.build import NetworkBuilder
from repro.circuits.gates import GateType
from repro.circuits.network import Network


def ripple_carry_adder(width: int) -> Network:
    """A ``width``-bit ripple-carry adder (k-bounded per Fujiwara).

    Inputs a0..a{w-1}, b0..b{w-1}, cin; outputs s0..s{w-1}, cout.
    """
    if width < 1:
        raise ValueError("width must be positive")
    b = NetworkBuilder(f"rca{width}")
    a_bits = [b.input(f"a{i}") for i in range(width)]
    b_bits = [b.input(f"b{i}") for i in range(width)]
    carry = b.input("cin")
    sums = []
    for i in range(width):
        axb = b.xor(a_bits[i], b_bits[i], name=f"axb{i}")
        sums.append(b.xor(axb, carry, name=f"s{i}"))
        gen = b.and_(a_bits[i], b_bits[i], name=f"gen{i}")
        prop = b.and_(axb, carry, name=f"prp{i}")
        carry = b.or_(gen, prop, name=f"c{i+1}")
    b.outputs(*sums, carry)
    return b.build()


def carry_lookahead_adder(width: int, group: int = 4) -> Network:
    """A CLA with ``group``-bit lookahead groups (deeper reconvergence)."""
    if width < 1 or group < 2:
        raise ValueError("width >= 1 and group >= 2 required")
    b = NetworkBuilder(f"cla{width}")
    a_bits = [b.input(f"a{i}") for i in range(width)]
    b_bits = [b.input(f"b{i}") for i in range(width)]
    cin = b.input("cin")

    g = [b.and_(a_bits[i], b_bits[i], name=f"g{i}") for i in range(width)]
    p = [b.xor(a_bits[i], b_bits[i], name=f"p{i}") for i in range(width)]

    carries = [cin]
    for start in range(0, width, group):
        block = range(start, min(start + group, width))
        for i in block:
            # c_{i+1} = g_i + p_i g_{i-1} + ... + p_i..p_start c_start
            terms = [g[i]]
            for j in range(i, start, -1):
                prefix = b.and_(*(p[k] for k in range(j, i + 1)), g[j - 1])
                terms.append(prefix)
            tail = b.and_(*(p[k] for k in block if k <= i), carries[start])
            terms.append(tail)
            carries.append(b.or_(*terms, name=f"c{i+1}"))
    sums = [
        b.xor(p[i], carries[i], name=f"s{i}") for i in range(width)
    ]
    b.outputs(*sums, carries[width])
    return b.build()


def array_multiplier(width: int) -> Network:
    """A ``width × width`` carry-save array multiplier (c6288 structure)."""
    if width < 2:
        raise ValueError("width must be at least 2")
    b = NetworkBuilder(f"mult{width}")
    a_bits = [b.input(f"a{i}") for i in range(width)]
    b_bits = [b.input(f"b{i}") for i in range(width)]

    partial = [
        [b.and_(a_bits[i], b_bits[j], name=f"pp{i}_{j}") for i in range(width)]
        for j in range(width)
    ]

    def full_adder(x: str, y: str, z: str, tag: str) -> tuple[str, str]:
        s1 = b.xor(x, y, name=f"fs{tag}a")
        total = b.xor(s1, z, name=f"fs{tag}")
        c1 = b.and_(x, y, name=f"fc{tag}a")
        c2 = b.and_(s1, z, name=f"fc{tag}b")
        carry = b.or_(c1, c2, name=f"fc{tag}")
        return total, carry

    outputs = [partial[0][0]]
    sums = partial[0][1:]
    carries: list[str] = []
    for row in range(1, width):
        new_sums: list[str] = []
        new_carries: list[str] = []
        for col in range(width):
            pp = partial[row][col]
            if col < len(sums):
                addend = sums[col]
            else:
                addend = None
            carry_in = carries[col] if col < len(carries) else None
            if addend is None and carry_in is None:
                new_sums.append(pp)
                continue
            if carry_in is None:
                s = b.xor(pp, addend, name=f"hs{row}_{col}")
                c = b.and_(pp, addend, name=f"hc{row}_{col}")
            elif addend is None:
                s = b.xor(pp, carry_in, name=f"hs{row}_{col}")
                c = b.and_(pp, carry_in, name=f"hc{row}_{col}")
            else:
                s, c = full_adder(pp, addend, carry_in, f"{row}_{col}")
            new_sums.append(s)
            new_carries.append(c)
        outputs.append(new_sums[0])
        sums = new_sums[1:]
        carries = new_carries

    # Final ripple to merge remaining sums and carries.
    carry: str | None = None
    for col in range(len(sums)):
        x = sums[col]
        y = carries[col] if col < len(carries) else None
        if y is None and carry is None:
            outputs.append(x)
        elif carry is None:
            s = b.xor(x, y, name=f"rs{col}")
            carry = b.and_(x, y, name=f"rc{col}")
            outputs.append(s)
        elif y is None:
            s = b.xor(x, carry, name=f"rs{col}")
            carry = b.and_(x, carry, name=f"rc{col}")
            outputs.append(s)
        else:
            s, carry = full_adder(x, y, carry, f"r{col}")
            outputs.append(s)
    if carry is not None:
        outputs.append(carry)
    b.outputs(*outputs)
    return b.build()


def tmr_voted_adder(width: int) -> Network:
    """A ``width``-bit adder with triple-modular-redundant carry chains.

    The carry logic is replicated three times (each replica recomputes
    generate/propagate/carry from the shared primary inputs) and the
    per-bit carries are merged by a majority voter
    ``v_i = MAJ(c0_i, c1_i, c2_i)`` before feeding the sum XORs.  Any
    single stuck-at fault inside one replica's carry chain (or on one
    voter AND leg) is outvoted by the two healthy replicas, so a large
    fraction of the fault list is provably untestable — every such
    fault is an UNSAT instance for ATPG.  The shared sum XORs, the
    voter OR, and the primary inputs remain testable.

    This is the bench suite's deliberately redundancy-heavy member:
    unlike the random circuits (whose redundancy is accidental absorbed
    logic), its untestable faults all stem from one structural
    mechanism, which makes it the right workload for measuring clause
    sharing and conflict-side solver behaviour where UNSAT proofs, not
    interpreter overhead, dominate.

    Inputs a0..a{w-1}, b0..b{w-1}, cin; outputs s0..s{w-1}, cout.
    """
    if width < 1:
        raise ValueError("width must be positive")
    b = NetworkBuilder(f"tmr{width}")
    a_bits = [b.input(f"a{i}") for i in range(width)]
    b_bits = [b.input(f"b{i}") for i in range(width)]
    cin = b.input("cin")

    # Shared half-sum terms feeding the (testable) sum XORs.
    half = [
        b.xor(a_bits[i], b_bits[i], name=f"hs{i}") for i in range(width)
    ]

    # Three independent replica carry chains, each recomputing its own
    # generate/propagate terms from the shared primary inputs.
    replica_carries: list[list[str]] = []
    for r in range(3):
        carry = cin
        carries = []
        for i in range(width):
            axb = b.xor(a_bits[i], b_bits[i], name=f"axb_r{r}_{i}")
            gen = b.and_(a_bits[i], b_bits[i], name=f"gen_r{r}_{i}")
            prop = b.and_(axb, carry, name=f"prp_r{r}_{i}")
            carry = b.or_(gen, prop, name=f"c_r{r}_{i+1}")
            carries.append(carry)
        replica_carries.append(carries)

    # Per-bit majority vote over the three replica carries.
    voted = []
    for i in range(width):
        c0, c1, c2 = (replica_carries[r][i] for r in range(3))
        m01 = b.and_(c0, c1, name=f"vt01_{i}")
        m02 = b.and_(c0, c2, name=f"vt02_{i}")
        m12 = b.and_(c1, c2, name=f"vt12_{i}")
        voted.append(b.or_(m01, m02, m12, name=f"v{i}"))

    sums = [b.xor(half[0], cin, name="s0")]
    for i in range(1, width):
        sums.append(b.xor(half[i], voted[i - 1], name=f"s{i}"))
    b.outputs(*sums, voted[width - 1])
    return b.build()


def redundant_tail_unit(width: int, tail: int) -> Network:
    """A scheduler-adversarial circuit with an injected redundant tail.

    Three regions, engineered so that SCOAP's detection-cost ordering is
    close to *worst case*; a fault order trained on this family does
    better on it, but no such order wins on circuits outside its
    training set (EXPERIMENTS.md § Hardness-guided scheduling):

    * **Expensive core** — a ``width x width`` carry-save array
      multiplier whose product bits are primary outputs.  Its
      final-row faults have near-zero observability cost and an
      optimistic min-path controllability, so SCOAP schedules them
      *first*; actually exciting a specific deep carry costs the solver
      hundreds of conflicts per fault.  The same faults are readily
      detected by random-ish patterns, so an order that defers them
      behind any pattern-producing bulk gets them fault-dropped for
      free instead of solved.
    * **Pattern bulk** — a single-output parity chain over all inputs.
      SCOAP prices every chain fault at roughly the chain length (XOR
      controllabilities add up), pushing the bulk *behind* the core;
      in truth each fault is a near-trivial SAT call whose test is a
      fresh near-random pattern over all inputs — exactly the drop
      fodder the core needs.
    * **Redundant tail** — three replica AND-OR mask chains over the
      low ``tail`` bits, majority-voted per bit: every single stuck-at
      fault inside one replica is outvoted by the two healthy copies,
      so the tail is provably untestable and every order must pay for
      each UNSAT proof.

    Inputs a0..a{w-1}, b0..b{w-1}, cin; outputs p0..p{2w-1} (product),
    par (parity), m0..m{t-1} (voted masks).
    """
    if width < 2 or tail < 1:
        raise ValueError("width must be >= 2 and tail positive")
    b = NetworkBuilder(f"rtail{width}_{tail}")
    a_bits = [b.input(f"a{i}") for i in range(width)]
    b_bits = [b.input(f"b{i}") for i in range(width)]
    cin = b.input("cin")

    # Expensive core: carry-save array multiplier (c6288 structure).
    partial = [
        [b.and_(a_bits[i], b_bits[j], name=f"pp{i}_{j}") for i in range(width)]
        for j in range(width)
    ]

    def full_adder(x: str, y: str, z: str, tag: str) -> tuple[str, str]:
        s1 = b.xor(x, y, name=f"fs{tag}a")
        total = b.xor(s1, z, name=f"fs{tag}")
        c1 = b.and_(x, y, name=f"fc{tag}a")
        c2 = b.and_(s1, z, name=f"fc{tag}b")
        carry = b.or_(c1, c2, name=f"fc{tag}")
        return total, carry

    products = [partial[0][0]]
    sums = partial[0][1:]
    carries: list[str] = []
    for row in range(1, width):
        new_sums: list[str] = []
        new_carries: list[str] = []
        for col in range(width):
            pp = partial[row][col]
            addend = sums[col] if col < len(sums) else None
            carry_in = carries[col] if col < len(carries) else None
            tag = f"{row}_{col}"
            if addend is None and carry_in is None:
                new_sums.append(pp)
            elif carry_in is None:
                new_sums.append(b.xor(pp, addend, name=f"hs{tag}"))
                new_carries.append(b.and_(pp, addend, name=f"hc{tag}"))
            elif addend is None:
                new_sums.append(b.xor(pp, carry_in, name=f"hs{tag}"))
                new_carries.append(b.and_(pp, carry_in, name=f"hc{tag}"))
            else:
                total, carry = full_adder(pp, addend, carry_in, tag)
                new_sums.append(total)
                new_carries.append(carry)
        products.append(new_sums.pop(0))
        sums = new_sums
        carries = new_carries
    carry = cin
    for col, (s, c) in enumerate(zip(sums, carries + [cin])):
        total, carry = full_adder(s, c, carry, f"f{col}")
        products.append(total)
    products.append(carry)

    # Pattern bulk: one parity chain over every input.
    parity = cin
    for index, net in enumerate(a_bits + b_bits):
        parity = b.xor(parity, net, name=f"pc{index}")

    # Redundant tail: replica mask chains + per-bit majority voters.  A
    # replica recomputes mask_i = (a_i AND b_i) OR (mask_{i-1} AND
    # (a_i XOR b_i)) from the shared inputs; a fault inside one replica
    # never flips the vote.
    replica_masks: list[list[str]] = []
    for r in range(3):
        mask = cin
        masks = []
        for i in range(min(tail, width)):
            con = b.and_(a_bits[i], b_bits[i], name=f"con_r{r}_{i}")
            mix = b.xor(a_bits[i], b_bits[i], name=f"mix_r{r}_{i}")
            keep = b.and_(mask, mix, name=f"kp_r{r}_{i}")
            mask = b.or_(con, keep, name=f"mk_r{r}_{i}")
            masks.append(mask)
        replica_masks.append(masks)

    voted = []
    for i in range(min(tail, width)):
        m0, m1, m2 = (replica_masks[r][i] for r in range(3))
        v01 = b.and_(m0, m1, name=f"mv01_{i}")
        v02 = b.and_(m0, m2, name=f"mv02_{i}")
        v12 = b.and_(m1, m2, name=f"mv12_{i}")
        voted.append(b.or_(v01, v02, v12, name=f"m{i}"))

    b.outputs(*products, parity, *voted)
    return b.build()


def decoder(select_bits: int) -> Network:
    """A ``select_bits``-to-2^n one-hot decoder (k-bounded family)."""
    if select_bits < 1 or select_bits > 8:
        raise ValueError("select_bits must be in 1..8")
    b = NetworkBuilder(f"dec{select_bits}")
    sel = [b.input(f"s{i}") for i in range(select_bits)]
    inv = [b.not_(s, name=f"ns{i}") for i, s in enumerate(sel)]
    outputs = []
    for value in range(1 << select_bits):
        literals = [
            sel[i] if (value >> i) & 1 else inv[i] for i in range(select_bits)
        ]
        if len(literals) == 1:
            outputs.append(b.buf(literals[0], name=f"d{value}"))
        else:
            outputs.append(b.and_(*literals, name=f"d{value}"))
    b.outputs(*outputs)
    return b.build()


def mux_tree(select_bits: int) -> Network:
    """A 2^n : 1 multiplexer built as a tree of 2:1 muxes."""
    if select_bits < 1 or select_bits > 6:
        raise ValueError("select_bits must be in 1..6")
    b = NetworkBuilder(f"mux{select_bits}")
    data = [b.input(f"d{i}") for i in range(1 << select_bits)]
    sel = [b.input(f"s{i}") for i in range(select_bits)]
    layer = data
    for stage, select in enumerate(sel):
        nsel = b.not_(select, name=f"ns{stage}")
        next_layer = []
        for pair in range(0, len(layer), 2):
            low = b.and_(nsel, layer[pair], name=f"m{stage}_{pair}l")
            high = b.and_(select, layer[pair + 1], name=f"m{stage}_{pair}h")
            next_layer.append(b.or_(low, high, name=f"m{stage}_{pair}"))
        layer = next_layer
    b.outputs(layer[0])
    return b.build()


def parity_tree(width: int, arity: int = 2) -> Network:
    """A balanced XOR tree over ``width`` inputs (the c2670/c3540 motif)."""
    if width < 2:
        raise ValueError("width must be at least 2")
    if arity < 2:
        raise ValueError("arity must be at least 2")
    b = NetworkBuilder(f"parity{width}")
    layer = [b.input(f"x{i}") for i in range(width)]
    stage = 0
    while len(layer) > 1:
        next_layer = []
        for i in range(0, len(layer), arity):
            chunk = layer[i : i + arity]
            if len(chunk) == 1:
                next_layer.append(chunk[0])
            else:
                next_layer.append(b.xor(*chunk, name=f"p{stage}_{i}"))
        layer = next_layer
        stage += 1
    b.outputs(layer[0])
    return b.build()


def comparator(width: int) -> Network:
    """``width``-bit equality and greater-than comparator."""
    if width < 1:
        raise ValueError("width must be positive")
    b = NetworkBuilder(f"cmp{width}")
    a_bits = [b.input(f"a{i}") for i in range(width)]
    b_bits = [b.input(f"b{i}") for i in range(width)]
    eq_bits = [
        b.xnor(a_bits[i], b_bits[i], name=f"eq{i}") for i in range(width)
    ]
    if width == 1:
        equal = b.buf(eq_bits[0], name="equal")
    else:
        equal = b.and_(*eq_bits, name="equal")
    gt_terms = []
    for i in reversed(range(width)):
        nb = b.not_(b_bits[i], name=f"nb{i}")
        this = b.and_(a_bits[i], nb, name=f"gtbit{i}")
        higher_eq = eq_bits[i + 1 :]
        if higher_eq:
            gt_terms.append(b.and_(this, *higher_eq, name=f"gt{i}"))
        else:
            gt_terms.append(this)
    if len(gt_terms) == 1:
        greater = b.buf(gt_terms[0], name="greater")
    else:
        greater = b.or_(*gt_terms, name="greater")
    b.outputs(equal, greater)
    return b.build()


def alu_slice(width: int) -> Network:
    """A small ALU: AND/OR/XOR/ADD of two ``width``-bit words, 2-bit opcode."""
    if width < 1:
        raise ValueError("width must be positive")
    b = NetworkBuilder(f"alu{width}")
    a_bits = [b.input(f"a{i}") for i in range(width)]
    b_bits = [b.input(f"b{i}") for i in range(width)]
    op0 = b.input("op0")
    op1 = b.input("op1")
    nop0 = b.not_(op0, name="nop0")
    nop1 = b.not_(op1, name="nop1")
    sel_and = b.and_(nop1, nop0, name="sel_and")
    sel_or = b.and_(nop1, op0, name="sel_or")
    sel_xor = b.and_(op1, nop0, name="sel_xor")
    sel_add = b.and_(op1, op0, name="sel_add")

    carry: str | None = None
    outputs = []
    for i in range(width):
        fa = b.and_(a_bits[i], b_bits[i], name=f"andv{i}")
        fo = b.or_(a_bits[i], b_bits[i], name=f"orv{i}")
        fx = b.xor(a_bits[i], b_bits[i], name=f"xorv{i}")
        if carry is None:
            fs = fx
            carry = fa
        else:
            fs = b.xor(fx, carry, name=f"sumv{i}")
            c1 = b.and_(fx, carry, name=f"cv{i}a")
            carry = b.or_(fa, c1, name=f"cv{i}")
        picked = b.or_(
            b.and_(sel_and, fa, name=f"t{i}a"),
            b.and_(sel_or, fo, name=f"t{i}o"),
            b.and_(sel_xor, fx, name=f"t{i}x"),
            b.and_(sel_add, fs, name=f"t{i}s"),
            name=f"y{i}",
        )
        outputs.append(picked)
    cout = b.and_(sel_add, carry, name="cout")
    b.outputs(*outputs, cout)
    return b.build()


def cellular_array_1d(cells: int) -> Network:
    """A 1-D cellular array (Fujiwara's k-bounded example).

    Each cell computes ``out_i = (x_i AND state_{i-1}) OR (y_i AND NOT
    state_{i-1})`` and passes a next-state to its right neighbour.
    """
    if cells < 1:
        raise ValueError("cells must be positive")
    b = NetworkBuilder(f"cell1d_{cells}")
    state = b.input("s0")
    outputs = []
    for i in range(cells):
        x = b.input(f"x{i}")
        y = b.input(f"y{i}")
        ns = b.not_(state, name=f"nst{i}")
        hi = b.and_(x, state, name=f"hi{i}")
        lo = b.and_(y, ns, name=f"lo{i}")
        out = b.or_(hi, lo, name=f"o{i}")
        outputs.append(out)
        state = b.xor(out, state, name=f"st{i+1}")
    b.outputs(*outputs, state)
    return b.build()


def cellular_array_2d(rows: int, cols: int) -> Network:
    """A 2-D cellular array with rightward and downward signal flow."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    b = NetworkBuilder(f"cell2d_{rows}x{cols}")
    down = [b.input(f"top{c}") for c in range(cols)]
    outputs = []
    for r in range(rows):
        right = b.input(f"left{r}")
        for c in range(cols):
            x = b.input(f"x{r}_{c}")
            a = b.and_(right, down[c], name=f"a{r}_{c}")
            o = b.or_(a, x, name=f"cell{r}_{c}")
            right = b.xor(o, right, name=f"rt{r}_{c}")
            down[c] = b.and_(o, down[c], name=f"dn{r}_{c}")
        outputs.append(right)
    b.outputs(*outputs, *down)
    return b.build()


def binary_tree_circuit(depth: int, arity: int = 2, gate: GateType = GateType.AND) -> Network:
    """A complete ``arity``-ary tree of ``gate`` nodes (Lemma 5.2 family)."""
    if depth < 1:
        raise ValueError("depth must be positive")
    b = NetworkBuilder(f"tree{arity}_{depth}")
    leaves = [b.input(f"x{i}") for i in range(arity**depth)]
    layer = leaves
    level = 0
    while len(layer) > 1:
        next_layer = []
        for i in range(0, len(layer), arity):
            next_layer.append(
                b.gate(gate, layer[i : i + arity], name=f"t{level}_{i}")
            )
        layer = next_layer
        level += 1
    b.outputs(layer[0])
    return b.build()


def barrel_shifter(width_log2: int) -> Network:
    """A logarithmic barrel shifter: ``out = data << shift`` (wrap-around).

    ``width_log2`` selects a 2^k data width with k mux stages — the
    classic layered-mux topology (bounded, very regular cut structure).
    """
    if width_log2 < 1 or width_log2 > 5:
        raise ValueError("width_log2 must be in 1..5")
    width = 1 << width_log2
    b = NetworkBuilder(f"bshift{width}")
    data = [b.input(f"d{i}") for i in range(width)]
    shift = [b.input(f"s{k}") for k in range(width_log2)]

    layer = data
    for stage, select in enumerate(shift):
        amount = 1 << stage
        nsel = b.not_(select, name=f"ns{stage}")
        next_layer = []
        for i in range(width):
            stay = b.and_(nsel, layer[i], name=f"st{stage}_{i}")
            moved = b.and_(
                select, layer[(i - amount) % width], name=f"mv{stage}_{i}"
            )
            next_layer.append(b.or_(stay, moved, name=f"o{stage}_{i}"))
        layer = next_layer
    b.outputs(*layer)
    return b.build()


def priority_encoder(width: int) -> Network:
    """A ``width``-input priority encoder: one-hot grant to the lowest
    asserted request plus a ``valid`` flag (ripple of inhibits)."""
    if width < 2:
        raise ValueError("width must be at least 2")
    b = NetworkBuilder(f"prio{width}")
    requests = [b.input(f"r{i}") for i in range(width)]
    grants = []
    inhibit = None
    for i, request in enumerate(requests):
        if inhibit is None:
            grants.append(b.buf(request, name=f"g{i}"))
            inhibit = request
        else:
            ninh = b.not_(inhibit, name=f"ni{i}")
            grants.append(b.and_(request, ninh, name=f"g{i}"))
            inhibit = b.or_(inhibit, request, name=f"inh{i}")
    valid = b.buf(inhibit, name="valid")
    b.outputs(*grants, valid)
    return b.build()


def wallace_multiplier(width: int) -> Network:
    """A Wallace-tree multiplier: carry-save reduction in log depth.

    Same function as :func:`array_multiplier`, very different topology —
    useful as an equivalence-checking pair and as a denser-width family.
    """
    if width < 2 or width > 6:
        raise ValueError("width must be in 2..6")
    b = NetworkBuilder(f"wallace{width}")
    a_bits = [b.input(f"a{i}") for i in range(width)]
    b_bits = [b.input(f"b{i}") for i in range(width)]

    columns: list[list[str]] = [[] for _ in range(2 * width)]
    for i in range(width):
        for j in range(width):
            columns[i + j].append(
                b.and_(a_bits[i], b_bits[j], name=f"pp{i}_{j}")
            )

    tag = 0
    while any(len(col) > 2 for col in columns):
        next_columns: list[list[str]] = [[] for _ in range(2 * width)]
        for index, col in enumerate(columns):
            pending = list(col)
            while len(pending) >= 3:
                x, y, z = pending[:3]
                pending = pending[3:]
                tag += 1
                s1 = b.xor(x, y, name=f"ws{tag}a")
                total = b.xor(s1, z, name=f"ws{tag}")
                c1 = b.and_(x, y, name=f"wc{tag}a")
                c2 = b.and_(s1, z, name=f"wc{tag}b")
                carry = b.or_(c1, c2, name=f"wc{tag}")
                next_columns[index].append(total)
                if index + 1 < 2 * width:
                    next_columns[index + 1].append(carry)
            if len(pending) == 2:
                x, y = pending
                tag += 1
                total = b.xor(x, y, name=f"hs{tag}")
                carry = b.and_(x, y, name=f"hc{tag}")
                next_columns[index].append(total)
                if index + 1 < 2 * width:
                    next_columns[index + 1].append(carry)
            elif pending:
                next_columns[index].append(pending[0])
        columns = next_columns

    # Final carry-propagate addition over the two remaining rows.
    outputs = []
    carry: str | None = None
    for index, col in enumerate(columns):
        operands = list(col)
        if carry is not None:
            operands.append(carry)
        if not operands:
            continue
        if len(operands) == 1:
            outputs.append(b.buf(operands[0], name=f"p{index}"))
            carry = None
        elif len(operands) == 2:
            x, y = operands
            outputs.append(b.xor(x, y, name=f"p{index}"))
            carry = b.and_(x, y, name=f"fc{index}")
        else:
            x, y, z = operands
            s1 = b.xor(x, y, name=f"fs{index}a")
            outputs.append(b.xor(s1, z, name=f"p{index}"))
            c1 = b.and_(x, y, name=f"fca{index}")
            c2 = b.and_(s1, z, name=f"fcb{index}")
            carry = b.or_(c1, c2, name=f"fc{index}")
    b.outputs(*outputs)
    return b.build()
