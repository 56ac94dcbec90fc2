(** Deployment report: one readable view of a running AvA stack — the
    administrator's view implied by §4.3's administration interface.
    It keeps no copy: each counter is read from its layer's accessor
    (guest stub and VM, router, the pool's servers, GPUs and swap
    managers, obs) when the report is printed. *)

val pp : Host.cl_host -> Format.formatter -> Host.cl_guest list -> unit
(** [pp host ppf guests] prints [host]'s router, server and device
    totals (summed over the pool), one row per pool device, the fault,
    swap, latency and cache sections that have anything to show, and
    one line per guest in [guests]. *)
