(* The shadow-page pool is gone: the interval reset fills a
   fully-timestamped page in place ([Shadow.reset_interval]).  This
   one value stays only because the end-to-end benchmark (perfbench/)
   names it as the value of [Runtime_config.t]'s inert [pool_cap]
   field; delete the two together. *)

let unbounded = max_int
