"""The feed task's one pass and counting walk on their own, with no
fallback: over a catalog's columns, counting on the scorer that scored, as
a screen fill runs them.  A test reads the fill (``feed._fill_screen``)
where the fallback to each feed's own run is meant."""
from gpislands import feed


def pass_values(tree, catalog):
    """Each feed's value for ``tree`` from the one pass, in catalog order."""
    return feed._scorer(feed._feed_columns(catalog), len(catalog.feeds))(tree)


def pass_steps(tree, catalog):
    """Each feed's step count for ``tree`` from the counting walk, in
    catalog order."""
    columns = feed._feed_columns(catalog)
    return feed._count_steps(tree, columns, feed._scorer(columns, len(catalog.feeds)))
