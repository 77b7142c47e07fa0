(** Cycle-level simulation of a mapped kernel.

    Replays the modulo schedule over all iterations against a scratchpad:
    every node fires at absolute cycle [t(node) + iter * II], reads operands
    produced exactly [route length] cycles earlier, and every routed value's
    journey is replayed hop by hop, checking that no two different values
    ever occupy the same wire in the same absolute cycle.  Finally the SPM
    is compared word-for-word with the {!Reference} interpreter — the same
    role Morpher's cycle-accurate simulator plays for the paper (verifying
    mapping and hardware design, Section 6.2).

    {b Faulty-fabric mode.}  When the mapping's architecture carries faults
    ({!Plaid_arch.Arch.set_faults}), the simulator models the broken
    silicon: a value produced on a faulted FU cell, carried over a faulted
    wire cell or broken link, or read from / written to a faulty SPM bank is
    corrupted (an odd constant added on the 16-bit datapath — bijective and
    never equal to the healthy value).  A mapping that avoids every fault
    simulates exactly as on the pristine fabric; a mapping that touches one
    produces wrong memory and is caught by {!verify}. *)

type stats = {
  cycles : int;             (** total execution cycles, fill/drain included *)
  fu_firings : int;         (** node executions across all iterations *)
  wire_hops : int;          (** (resource, cycle) wire occupancies replayed *)
  stall_cycles : int;       (** cycles in which no node fired and no wire
                                carried a value (fill/drain bubbles) *)
}

val check_work : Plaid_ir.Dfg.t -> (unit, string) result
(** [Error] naming the kernel when [trip * nodes] exceeds 2{^20} node
    firings, or the {!Plaid_ir.Dfg.arrays} extents sum past 2{^20} words:
    the most a command-line simulation admits.  The simulator and
    {!Reference} hold one value per firing, and the scratchpad holds every
    word of every array.  The largest shipped kernel (conv3x3, trip 64 x 37
    nodes) is 2368 firings over 271 words.  Extents and their sum saturate
    at [max_int], so a kernel whose addresses overflow is refused too.
    Check it before allocating the scratchpad. *)

val run : Plaid_mapping.Mapping.t -> Spm.t -> (stats, string) result
(** Executes the mapping, mutating the SPM.  Errors on wire conflicts or
    timing inconsistencies (which indicate a mapper/validator bug), and —
    for mappings loaded without validation — on an II below 1, a route
    through a resource the fabric lacks, or a schedule spread over more
    than 2{^20} cycles. *)

val verify : Plaid_mapping.Mapping.t -> Spm.t -> (stats, string) result
(** [run] on a copy, then compare against {!Reference.run} on another copy.
    The input SPM is left untouched. *)
