"""TEL001 negative: every emission is dominated by `is not None`."""


class Engine:
    def __init__(self, trace_bus):
        self.trace_bus = trace_bus

    def step(self, flow):
        trace_bus = self.trace_bus
        if trace_bus is not None:
            trace_bus.emit("flow_step", flow_id=flow)
        if self.trace_bus is None:
            return
        with self.trace_bus.span("flow_walk", flow_id=flow):
            pass
