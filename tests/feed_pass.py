"""The feed task's one pass and counting walk on their own: over a
catalog's columns, counting on the scorer that scored, as a screen fill
runs them, but raising the pass's own ``KeyError`` for a terminal with no
column, where the fill raises ``ConfigurationError``."""
from gpislands import feed


def pass_values(tree, catalog):
    """Each feed's value for ``tree`` from the one pass, in catalog order."""
    return feed._scorer(feed._feed_columns(catalog), len(catalog.feeds))(tree)


def pass_steps(tree, catalog):
    """Each feed's step count for ``tree`` from the counting walk, in
    catalog order."""
    columns = feed._feed_columns(catalog)
    return feed._count_steps(tree, columns, feed._scorer(columns, len(catalog.feeds)))
