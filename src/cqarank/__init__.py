"""Community question retrieval: language/translation/topic relevance
scorers, user-authority quality features, and LambdaMART fusion."""
