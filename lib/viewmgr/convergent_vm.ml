open Relational

type state = {
  engine : Sim.Engine.t;
  emit_delay : unit -> float;
  view : Query.View.t;
  plan : Query.Compiled.t; (* the view definition, compiled once *)
  plan_state : Query.Compiled.state; (* advanced with [cache] *)
  emit : Query.Action_list.t -> unit;
  mutable cache : Database.t;
  mutable in_flight : int;
}

let create ~engine ~emit_delay ~initial ~view ~emit () =
  let cache = Database.restrict initial (Query.View.base_relations view) in
  let plan =
    Query.Compiled.compile ~lookup:(Database.schema cache)
      view.Query.View.def
  in
  let st =
    { engine; emit_delay; view; plan;
      plan_state = Query.Compiled.state cache plan; emit; cache;
      in_flight = 0 }
  in
  { Vm.view; level = Vm.Convergent;
    receive =
      (fun txn ->
        let changes = Query.Delta.of_transaction txn in
        let delta =
          Query.Delta.eval_plan ~state:st.plan_state ~pre:st.cache changes
            st.plan
        in
        st.cache <- Database.apply_relevant st.cache txn;
        let al =
          Query.Action_list.delta ~view:(Query.View.name st.view)
            ~state:txn.Update.Transaction.id delta
        in
        st.in_flight <- st.in_flight + 1;
        (* Deliberately unordered: each list leaves after its own delay. *)
        Sim.Engine.schedule_after st.engine (st.emit_delay ()) (fun () ->
            st.in_flight <- st.in_flight - 1;
            st.emit al));
    flush = (fun () -> ());
    needs_ticks = false;
    pending = (fun () -> st.in_flight) }
