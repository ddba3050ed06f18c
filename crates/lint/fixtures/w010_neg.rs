//! DV-W010 negative: waiting goes through virtual time. `ctx.park()` is
//! the sim's own descheduling call, not `std::thread::park`.
fn wait_for_data(ctx: &SimCtx, arrivals: &WaitSet) -> Option<u64> {
    ctx.park();
    ctx.wait_until(ctx.now() + 5);
    ctx.wait_for(Some(ctx.now() + 5), || ctx.try_take(), |w| arrivals.register(w))
}
