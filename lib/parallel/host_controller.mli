(** The former per-stage host-parallelism controller, reduced to its
    mode type.

    Engine stages (interval reset, checkpoint extraction, merge, spawn
    setup) always run sequentially on the domain that runs their job;
    host parallelism lives only in the job server.  The type survives
    because [Runtime_config.t] still carries an inert
    [host_controller] field. *)

type mode = Auto
