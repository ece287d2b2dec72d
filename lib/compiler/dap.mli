(** Disk access patterns (paper §3).

    The DAP "lists, for each disk, the idle and active times in a compact
    form": an alternating sequence of windows, each anchored at a
    (nest, iteration) boundary and interpreted in time through the
    compiler's estimate.  This is the structure the insertion pass plans
    over, and the artifact the paper's Figure 2(c) depicts. *)

type state = Idle | Active

type window = {
  state : state;
  start_item : int;  (** Top-level item where the window opens. *)
  start_ord : int;  (** Outer-iteration ordinal where it opens. *)
  end_item : int;  (** Item where it closes... *)
  end_ord : int;  (** ...at the iteration ordinal {e after} its last one. *)
  t_start : float;  (** Estimated wall-clock open, seconds. *)
  t_end : float;  (** Estimated wall-clock close, seconds. *)
  requests : int;
      (** Disk requests the window is predicted to carry (0 for idle
          windows; the count the serving-speed selection divides by for
          active windows). *)
  min_spacing : float;
      (** Tightest estimated per-request spacing among the window's
          request-carrying iterations (duration / count); [infinity] for
          idle windows.  The serving-speed selection must respect this,
          not the window mean: windows can merge dense and sparse
          sub-phases. *)
}

type t = {
  ndisks : int;
  windows : window list array;  (** Per disk, in time order, alternating. *)
}

val build : Access.t list -> Estimate.t -> t
(** Combine the access analysis with the timing estimate.  Adjacent
    same-state windows are merged across item boundaries. *)

val idle_windows : t -> disk:int -> window list

val entries : t -> disk:int -> (int * int * state) list
(** The paper's compact transition form: [(nest, iteration, state)]
    triples marking where the disk's state changes (iteration is the
    outer ordinal at which the new state begins). *)

val pp_disk : Access.t list -> Format.formatter -> t * int -> unit
(** Renders one disk's DAP like the paper's example, e.g.
    ["< Nest 1, iteration 1, idle >"]. *)
