(* The study build as the paper regeneration and [rdna study
   --fail-fast] run it: the supervised sweep of {!Rd_study.Driver.study},
   then a re-raise of the lowest net id's failure. *)
let networks ?only ?jobs ?trace ?metrics ?faults ~master_seed () =
  List.map
    (function
      | Ok (i : Rd_study.Driver.study_item) -> Option.get i.network
      | Error (f : Rd_study.Population.failure) -> Rd_util.Pool.reraise f.failure)
    (Rd_study.Driver.sweep ?trace ?metrics ?faults ?jobs ?only ~master_seed
       (Rd_study.Driver.study ?trace ?metrics ?jobs ?faults ()))
