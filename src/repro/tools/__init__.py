"""In-simulator network tools: traceroute and ping."""
