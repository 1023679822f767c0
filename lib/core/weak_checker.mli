(** Checking weaker isolation levels over mini-transaction histories — the
    extension the paper leaves as future work (Section VII), made easy by
    the same structure that powers the strong-level algorithms: with
    unique values and the RMW pattern, each object's versions form a
    *tree* (each write's parent is the version its transaction read), and
    the tree order is forced into any commit/arbitration order because
    tree edges are WR dependencies.

    Three levels, from weakest to strongest:
    - {b READ COMMITTED} (Adya's PL-2): the INT screen (no thin-air,
      aborted or intermediate reads, G1a/G1b) plus no G1c cycle over
      WR ∪ WW.
    - {b READ ATOMIC} (RAMP): READ COMMITTED plus no fractured reads — a
      transaction that reads object [x] from writer [W] must not read,
      on any other object [y] that [W] also wrote, a version strictly
      older (a strict tree ancestor) than [W]'s write.
    - {b CAUSAL} (transactional causal consistency): READ COMMITTED plus
      (i) the causal order hb = (SO ∪ WR)⁺ is acyclic and (ii) no stale
      read: a read must not return a version with a strict tree descendant
      written by an hb-predecessor of the reader.

    On the Figure 5 catalogue: the intra anomalies (a–g) fail all three;
    SESSIONGUARANTEEVIOLATION and CAUSALITYVIOLATION fail only CAUSAL;
    NONMONOTONICREAD and FRACTUREDREAD fail READ ATOMIC and CAUSAL;
    LONGFORK, LOSTUPDATE and WRITESKEW pass all three (they need SI/SER
    to be rejected).

    Like the strong checkers, these require mini-transaction histories
    with unique values (every write has a read-parent), and they run on
    the same pipeline: unique values, {!Index}, the INT screen, then the
    frozen {!Deps} CSR.  G1c is a cycle search over its WR ∪ WW edges,
    hb is its SO ∪ WR edges, and the version trees are its WW(k) edges.
    Stale reads are found through the reader's RW successors and
    per-session hb clocks — n × (sessions + 1) ints, no reachability
    matrix (DESIGN.md §"Weak_checker"). *)

type level = Read_committed | Read_atomic | Causal

val level_name : level -> string

type violation =
  | Intra of Int_check.violation
  | G1c_cycle of (Txn.id * Deps.dep * Txn.id) list
      (** cycle over WR ∪ WW *)
  | Fractured of {
      reader : Txn.id;
      writer : Txn.id;
      read_key : Op.key;  (** the object read from [writer] *)
      stale_key : Op.key;  (** the object where an older version was read *)
    }
  | Causality of {
      reader : Txn.id;
      stale_key : Op.key;
      missed_writer : Txn.id;
          (** hb-predecessor whose write the reader missed *)
    }
  | Hb_cycle of (Txn.id * Deps.dep * Txn.id) list
      (** cycle over SO ∪ WR *)
  | Malformed of string

type outcome = Pass | Fail of violation

val pp_violation : Format.formatter -> violation -> unit

val check : ?pool:Pool.t -> level -> History.t -> outcome
(** [pool] runs the shared stages — unique values, index, INT screen and
    dependency inference — across domains; the outcome, payload
    included, is the same for every pool size. *)

val check_rc : History.t -> outcome
val check_ra : History.t -> outcome
val check_causal : History.t -> outcome

val passes : outcome -> bool
